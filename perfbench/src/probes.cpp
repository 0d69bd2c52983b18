#include "probes.hpp"

#include <memory>
#include <random>

#include "cudart/local_api.hpp"
#include "cudart/raii.hpp"
#include "rpc/record.hpp"
#include "rpc/transport.hpp"
#include "vnet/checksum.hpp"
#include "vnet/packet.hpp"
#include "workloads/kernels.hpp"
#include "xdr/xdr.hpp"

namespace perfbench {
namespace {

using namespace cricket;

constexpr double kMiBf = 1024.0 * 1024.0;
/// Wire ByteQueue chunk: one Hermit segment (9000-byte MTU, no TSO).
constexpr std::size_t kSegment = 8960;

/// Keeps the checksum probe's result observable, so it is not optimized out.
volatile std::uint32_t g_checksum_sink = 0;

/// Bytes per second of one layer operation, summed over the sizes.
class Throughput {
 public:
  void add(std::size_t bytes, std::int64_t ns) {
    bytes_ += static_cast<double>(bytes);
    ns_ += static_cast<double>(ns);
    ++samples_;
  }
  [[nodiscard]] Metric metric(const std::string& name) const {
    return {name, safe_div(bytes_ / kMiBf, ns_ * 1e-9), "MiB/s", samples_};
  }

 private:
  double bytes_ = 0;
  double ns_ = 0;
  std::uint64_t samples_ = 0;
};

/// Runs `op` at least once and until `budget_ns` of wall time has passed.
template <typename Op>
void repeat(std::int64_t budget_ns, Op&& op) {
  const std::int64_t end = now_ns() + budget_ns;
  do {
    op();
  } while (now_ns() < end);
}

std::vector<std::uint8_t> seeded_bytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

}  // namespace

ProbeResult run_probes(const std::vector<std::size_t>& sizes,
                       std::uint64_t seed, double budget_s) {
  const auto budget = static_cast<std::int64_t>(budget_s * 1e9);
  Throughput enc, dec, record, queue, frame, csum, h2d, d2h;
  bool ok = true;

  auto node = cuda::GpuNode::make_a100();
  workloads::register_sample_kernels(node->registry());
  cuda::LocalCudaApi api(*node);

  for (const std::size_t size : sizes) {
    const auto data = seeded_bytes(size, seed ^ size);

    repeat(budget, [&] {
      xdr::Encoder e(size + 8);
      const std::int64_t t0 = now_ns();
      e.put_opaque(data);
      const std::int64_t t1 = now_ns();
      enc.add(size, t1 - t0);
      xdr::Decoder d(e.bytes());
      const std::int64_t t2 = now_ns();
      const auto back = d.get_opaque(static_cast<std::uint32_t>(size));
      const std::int64_t t3 = now_ns();
      dec.add(size, t3 - t2);
      ok = ok && back == data;
    });

    repeat(budget, [&] {
      // Capacity for the whole record, so one thread writes then reads.
      auto [a, b] = rpc::make_pipe_pair(size + (1u << 16));
      rpc::RecordWriter writer(*a);
      rpc::RecordReader reader(*b);
      std::vector<std::uint8_t> back;
      const std::int64_t t0 = now_ns();
      writer.write_record(data);
      ok = reader.read_record(back) && ok;
      const std::int64_t dt = now_ns() - t0;
      record.add(size, dt);
      ok = ok && back == data;
    });

    repeat(budget, [&] {
      rpc::ByteQueue q(1u << 22);  // the wire queue env::connect builds
      std::vector<std::uint8_t> out(std::min(size, kSegment));
      const std::int64_t t0 = now_ns();
      for (std::size_t off = 0; off < size; off += kSegment) {
        const std::size_t n = std::min(kSegment, size - off);
        q.push(std::span(data).subspan(off, n));
        std::size_t got = 0;
        while (got < n) got += q.pop(std::span(out).subspan(got, n - got));
      }
      const std::int64_t dt = now_ns() - t0;
      queue.add(size, dt);
    });

    repeat(budget, [&] {
      // The RX backend's frame build (checksums filled) and the TX
      // backend's unwrap (checksums trusted), one segment at a time.
      std::int64_t dt = 0;
      for (std::size_t off = 0; off < size; off += kSegment) {
        const auto payload =
            std::span(data).subspan(off, std::min(kSegment, size - off));
        const std::int64_t t0 = now_ns();
        const auto f = vnet::encode_frame(vnet::EthHeader{}, vnet::Ipv4Header{},
                                          vnet::TcpHeader{}, payload, true);
        const auto parsed = vnet::parse_frame(f, false);
        dt += now_ns() - t0;
        ok = ok && parsed.payload.size() == payload.size();
      }
      frame.add(size, dt);
    });

    repeat(budget, [&] {
      std::uint32_t sink = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t off = 0; off < size; off += kSegment)
        sink += vnet::internet_checksum(
            std::span(data).subspan(off, std::min(kSegment, size - off)));
      const std::int64_t dt = now_ns() - t0;
      csum.add(size, dt);
      g_checksum_sink = sink;
    });

    cuda::DeviceBuffer dev(api, size);
    std::vector<std::uint8_t> back(size);
    repeat(budget, [&] {
      const std::int64_t t0 = now_ns();
      ok = api.memcpy_h2d(dev.get(), data) == cuda::Error::kSuccess && ok;
      const std::int64_t t1 = now_ns();
      ok = api.memcpy_d2h(back, dev.get()) == cuda::Error::kSuccess && ok;
      const std::int64_t t2 = now_ns();
      h2d.add(size, t1 - t0);
      d2h.add(size, t2 - t1);
    });
    ok = ok && back == data;
  }

  // One vectorAdd launch through the local driver facade, timing-only as
  // in the calls workloads.
  cuda::Module module(api, workloads::sample_cubin());
  const auto fn = module.function(workloads::kVectorAddKernel);
  cuda::DeviceBuffer a(api, 1024), b(api, 1024), c(api, 1024);
  cuda::ParamPacker params;
  params.add_ptr(c).add_ptr(a).add_ptr(b).add(std::uint32_t{256});
  node->device(0).set_timing_only(true);
  double launch_ns = 0;
  std::uint64_t launches = 0;
  repeat(budget, [&] {
    const std::int64_t t0 = now_ns();
    ok = api.launch_kernel(fn, {1, 1, 1}, {256, 1, 1}, 0,
                           gpusim::kDefaultStream,
                           params.bytes()) == cuda::Error::kSuccess &&
         ok;
    const std::int64_t dt = now_ns() - t0;
    launch_ns += static_cast<double>(dt);
    ++launches;
  });
  ok = api.device_synchronize() == cuda::Error::kSuccess && ok;

  return {{enc.metric("xdr.opaque_encode_mib_s"),
          dec.metric("xdr.opaque_decode_mib_s"),
          record.metric("rpc.record_mib_s"),
          queue.metric("rpc.bytequeue_mib_s"),
          frame.metric("vnet.frame_mib_s"),
          csum.metric("vnet.checksum_mib_s"),
          h2d.metric("gpusim.memcpy_h2d_mib_s"),
          d2h.metric("gpusim.memcpy_d2h_mib_s"),
          {"gpusim.launch_us", safe_div(launch_ns * 1e-3,
                                        static_cast<double>(launches)),
           "us", launches}},
          ok};
}

}  // namespace perfbench
