// Wall-clock performance of the implementation's own primitives
// (google-benchmark). These are *real time*, unlike the figure benches'
// virtual time: they answer "is this codebase itself fast enough to be a
// credible substrate?"
#include <benchmark/benchmark.h>

#include <thread>

#include "fatbin/cubin.hpp"
#include "fatbin/lz.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "sim/rng.hpp"
#include "vnet/checksum.hpp"
#include "vnet/packet.hpp"
#include "vnet/virtqueue.hpp"
#include "xdr/xdr.hpp"

namespace {

using namespace cricket;

void BM_XdrEncodeU32(benchmark::State& state) {
  xdr::Encoder enc(1 << 16);
  for (auto _ : state) {
    enc.clear();
    for (int i = 0; i < 1000; ++i) enc.put_u32(static_cast<std::uint32_t>(i));
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_XdrEncodeU32);

void BM_XdrOpaqueRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Xoshiro256ss rng(1);
  std::vector<std::uint8_t> payload(n);
  rng.fill_bytes(payload);
  for (auto _ : state) {
    xdr::Encoder enc(n + 16);
    enc.put_opaque(payload);
    xdr::Decoder dec(enc.bytes());
    benchmark::DoNotOptimize(dec.get_opaque());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_XdrOpaqueRoundTrip)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_LzCompress(benchmark::State& state) {
  const auto code = fatbin::make_pseudo_isa(
      static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) benchmark::DoNotOptimize(fatbin::lz_compress(code));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(code.size()));
}
BENCHMARK(BM_LzCompress)->Arg(1 << 12)->Arg(1 << 16);

void BM_LzDecompress(benchmark::State& state) {
  const auto code = fatbin::make_pseudo_isa(
      static_cast<std::size_t>(state.range(0)), 7);
  const auto compressed = fatbin::lz_compress(code);
  for (auto _ : state)
    benchmark::DoNotOptimize(fatbin::lz_decompress(compressed));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(code.size()));
}
BENCHMARK(BM_LzDecompress)->Arg(1 << 12)->Arg(1 << 16);

void BM_InternetChecksum(benchmark::State& state) {
  sim::Xoshiro256ss rng(3);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  rng.fill_bytes(data);
  for (auto _ : state)
    benchmark::DoNotOptimize(vnet::internet_checksum(data));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_InternetChecksum)->Arg(1500)->Arg(9000)->Arg(65536);

void BM_FrameEncodeParse(benchmark::State& state) {
  std::vector<std::uint8_t> payload(8960, 0x5A);
  vnet::EthHeader eth;
  vnet::Ipv4Header ip;
  ip.src = 1;
  ip.dst = 2;
  vnet::TcpHeader tcp;
  for (auto _ : state) {
    const auto frame = vnet::encode_frame(eth, ip, tcp, payload, true);
    benchmark::DoNotOptimize(vnet::parse_frame(frame, true));
  }
  state.SetBytesProcessed(state.iterations() * 8960);
}
BENCHMARK(BM_FrameEncodeParse);

void BM_RpcRoundTrip(benchmark::State& state) {
  rpc::ServiceRegistry registry;
  registry.register_typed<std::uint32_t, std::uint32_t>(
      99, 1, 1, [](std::uint32_t x) { return x + 1; });
  auto [client_end, server_end] = rpc::make_pipe_pair();
  std::thread server([&registry, t = std::move(server_end)]() mutable {
    rpc::serve_transport(registry, *t);
  });
  {
    rpc::RpcClient client(std::move(client_end), 99, 1);
    for (auto _ : state)
      benchmark::DoNotOptimize(
          client.call<std::uint32_t>(1, std::uint32_t{41}));
    state.SetItemsProcessed(state.iterations());
  }
  server.join();
}
BENCHMARK(BM_RpcRoundTrip);

void BM_VirtqueueProduceConsume(benchmark::State& state) {
  vnet::GuestMemory mem(1 << 20);
  vnet::Virtqueue vq(mem, 256);
  std::vector<std::uint8_t> payload(1024, 1);
  const std::span<const std::uint8_t> bufs[1] = {payload};
  for (auto _ : state) {
    const auto head = vq.add_chain(bufs, {});
    vq.kick(*head);
    auto chain = vq.pop_avail();
    benchmark::DoNotOptimize(vq.gather(*chain));
    vq.push_used(chain->head, 0);
    const auto used = vq.take_used();
    vq.recycle(used->first);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VirtqueueProduceConsume);

}  // namespace
