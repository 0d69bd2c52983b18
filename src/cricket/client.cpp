#include "cricket/client.hpp"

#include <atomic>
#include <thread>
#include <utility>

#include "cricket_bounds.hpp"
#include "cricket_proto.hpp"
#include "modcache/module_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpcflow/channel.hpp"

namespace cricket::core {

using cuda::Error;

namespace {

Error from_wire(std::int32_t err) { return static_cast<Error>(err); }

std::vector<std::uint8_t> bytes(std::span<const std::uint8_t> data) {
  return {data.begin(), data.end()};
}

proto::rpc_dim3 to_wire(cuda::Dim3 d) {
  return {xdr::Untrusted<std::uint32_t>(d.x), xdr::Untrusted<std::uint32_t>(d.y),
          xdr::Untrusted<std::uint32_t>(d.z)};
}

/// A D2H reply must carry exactly the bytes asked for.
Error copy_out(const proto::data_result& res, std::span<std::uint8_t> dst) {
  if (res.err == 0) {
    if (res.data.size() != dst.size()) return Error::kRpcFailure;
    std::copy(res.data.begin(), res.data.end(), dst.begin());
  }
  return from_wire(res.err);
}

/// `mode` is "sync" for serial calls; pipelined calls are "blocking" or
/// fire-and-forget "pipelined".
obs::Counter& api_calls_total(const char* mode) {
  return obs::Registry::global().counter("cricket_client_api_calls_total",
                                         {{"mode", mode}},
                                         "CUDA API calls forwarded over RPC");
}

}  // namespace

std::uint32_t next_auth_stamp() noexcept {
  // Starts past 0 so an auto-assigned stamp never collides with the "assign
  // one for me" sentinel in ClientConfig::auth_stamp.
  static std::atomic<std::uint32_t> next{1};
  return next.fetch_add(1);
}

RemoteCudaApi::RemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                             sim::SimClock& clock, ClientConfig config,
                             TransferLanes lanes)
    : clock_(&clock), config_(std::move(config)), lanes_(std::move(lanes)) {
  if (config_.pipeline.enabled) {
    rpcflow::ChannelOptions options;
    options.max_outstanding = config_.pipeline.depth;
    options.batch.enabled = config_.pipeline.batching;
    // Reply pre-flight: reject replies larger than the procedure's proven
    // result bound before they are decoded.
    options.bounds = proto::bounds::kProcBounds;
    options.retry = config_.retry;
    options.reconnect = config_.reconnect;
    channel_ = std::make_unique<rpcflow::AsyncRpcChannel>(
        std::move(transport), proto::CRICKET_PROG, proto::CRICKETVERS_VERS,
        std::move(options));
  } else {
    rpc_ = std::make_unique<rpc::RpcClient>(
        std::move(transport), proto::CRICKET_PROG, proto::CRICKETVERS_VERS,
        rpc::ClientOptions{.retry = config_.retry,
                           .reconnect = config_.reconnect});
  }
  if (config_.tenant.empty()) return;
  rpc::AuthSysParms cred;
  cred.machinename = config_.tenant;
  cred.stamp = config_.auth_stamp != 0 ? config_.auth_stamp : next_auth_stamp();
  if (rpc_) {
    rpc_->set_credential(cred.to_opaque());
  } else {
    channel_->set_credential(cred.to_opaque());
  }
}

RemoteCudaApi::~RemoteCudaApi() {
  try {
    (void)drain();
  } catch (...) {
    // Best-effort; the core's teardown copes with a dead connection.
  }
}

template <typename Res, typename... Args>
Res RemoteCudaApi::roundtrip(std::uint32_t proc, const Args&... args) {
  if (rpc_) return rpc_->call<Res>(proc, args...);
  // The server runs this session's calls in order, so by the time this
  // reply is in hand every earlier fire-and-forget call has executed.
  return channel_->call<Res>(proc, args...);
}

template <typename Fn>
Error RemoteCudaApi::forward(const char* name, Fn&& fn) {
  ++stats_.api_calls;
  // Degraded mode: the retry layer already exhausted its budget (or the
  // transport died with no reconnect path), so fail fast instead of paying
  // a full deadline per call against a link we know is gone.
  if (sticky_error_ == Error::kRpcFailure) return sticky_error_;
  static obs::Counter& sync_calls = api_calls_total("sync");
  static obs::Counter& blocking_calls = api_calls_total("blocking");
  (rpc_ ? sync_calls : blocking_calls).inc();
  // The whole remote call, named after the CUDA entry point; the RPC layers
  // underneath contribute the nested serialize/send/wait spans.
  obs::Span span(obs::Layer::kClientCall, name);
  clock_->advance(config_.flavor.per_call_ns);
  settle(/*all=*/false);
  try {
    return fn();
  } catch (const std::exception& e) {
    return fail(e);
  }
}

template <typename Res, typename Consume, typename... Args>
Error RemoteCudaApi::call(const char* name, std::uint32_t proc,
                          Consume&& consume, const Args&... args) {
  return forward(name, [&] { return consume(roundtrip<Res>(proc, args...)); });
}

template <typename... Args>
Error RemoteCudaApi::post(const char* name, std::uint32_t proc,
                          const Args&... args) {
  if (rpc_) return call<std::int32_t>(name, proc, from_wire, args...);
  ++stats_.api_calls;
  ++stats_.pipelined;
  if (sticky_error_ == Error::kRpcFailure) return sticky_error_;
  static obs::Counter& pipelined_calls = api_calls_total("pipelined");
  pipelined_calls.inc();
  clock_->advance(config_.flavor.per_call_ns);
  settle(/*all=*/false);
  try {
    pending_.push_back(channel_->call_async<std::int32_t>(proc, args...));
  } catch (const std::exception& e) {
    return fail(e);
  }
  // Fire-and-forget: like a CUDA kernel launch, success here only means
  // "queued"; a device-side failure surfaces at the next sync point.
  return Error::kSuccess;
}

template <typename... Args>
Error RemoteCudaApi::sync_point(const char* name, std::uint32_t proc,
                                const Args&... args) {
  absorb(call<std::int32_t>(name, proc, from_wire, args...));
  (void)drain();
  // Report the first error since the previous sync point and start clean,
  // unless the connection itself is gone.
  return std::exchange(sticky_error_, sticky_error_ == Error::kRpcFailure
                                          ? sticky_error_
                                          : Error::kSuccess);
}

Error RemoteCudaApi::fail(const std::exception& e) {
  if (const auto* rpc_error = dynamic_cast<const rpc::RpcError*>(&e)) {
    switch (rpc_error->kind()) {
      // Quota rejections are per-call and the connection stays healthy, so
      // they never go sticky — the tenant backs off and retries.
      case rpc::RpcError::Kind::kQuotaExceeded:
        return Error::kQuotaExceeded;
      // A surfaced migration redirect means the retry budget ran out while
      // the tenant moved servers. The call never executed and the next call
      // reconnects through the flipped redirect, so this is not sticky.
      case rpc::RpcError::Kind::kMigrating:
        return Error::kMigrating;
      case rpc::RpcError::Kind::kDeadlineExceeded:
        break;
      default:
        return Error::kRpcFailure;
    }
  } else if (dynamic_cast<const rpc::TransportError*>(&e) == nullptr) {
    return Error::kRpcFailure;  // e.g. undecodable results: this call only
  }
  sticky_error_ = Error::kRpcFailure;
  return sticky_error_;
}

void RemoteCudaApi::absorb(Error err) {
  if (sticky_error_ == Error::kSuccess) sticky_error_ = err;
}

void RemoteCudaApi::settle(bool all) {
  while (!pending_.empty() && (all || pending_.front().ready())) {
    Error err;
    try {
      err = from_wire(pending_.front().get());
    } catch (const std::exception& e) {
      err = fail(e);
    }
    pending_.pop_front();
    absorb(err);
  }
}

Error RemoteCudaApi::drain() {
  if (channel_) channel_->drain();
  settle(/*all=*/true);
  return sticky_error_;
}

void RemoteCudaApi::disconnect() {
  sticky_error_ = Error::kRpcFailure;
  (rpc_ ? rpc_->transport() : channel_->transport()).shutdown();
}

Error RemoteCudaApi::get_device_count(int& count) {
  return call<proto::int_result>(
      "cuda.get_device_count", proto::RPC_GET_DEVICE_COUNT_PROC,
      [&](const proto::int_result& res) {
        count = res.value;
        return from_wire(res.err);
      });
}

Error RemoteCudaApi::set_device(int device) {
  return post("cuda.set_device", proto::RPC_SET_DEVICE_PROC, device);
}

Error RemoteCudaApi::get_device(int& device) {
  return call<proto::int_result>("cuda.get_device", proto::RPC_GET_DEVICE_PROC,
                                 [&](const proto::int_result& res) {
                                   device = res.value;
                                   return from_wire(res.err);
                                 });
}

Error RemoteCudaApi::get_device_properties(cuda::DeviceInfo& info,
                                           int device) {
  return call<proto::dev_props_result>(
      "cuda.get_device_properties", proto::RPC_GET_DEVICE_PROPERTIES_PROC,
      [&](const proto::dev_props_result& res) {
        if (res.err == 0) {
          info = cuda::DeviceInfo{.name = res.name,
                                  .total_mem = res.total_mem,
                                  .sm_arch = res.sm_arch,
                                  .sm_count = res.sm_count,
                                  .clock_mhz = res.clock_mhz};
        }
        return from_wire(res.err);
      },
      device);
}

Error RemoteCudaApi::malloc(cuda::DevPtr& ptr, std::uint64_t size) {
  return call<proto::u64_result>("cuda.malloc", proto::RPC_MALLOC_PROC,
                                 [&](const proto::u64_result& res) {
                                   ptr = res.value;
                                   return from_wire(res.err);
                                 },
                                 size);
}

Error RemoteCudaApi::free(cuda::DevPtr ptr) {
  return post("cuda.free", proto::RPC_FREE_PROC, ptr);
}

Error RemoteCudaApi::memset(cuda::DevPtr ptr, int value, std::uint64_t size) {
  return post("cuda.memset", proto::RPC_MEMSET_PROC, ptr, value, size);
}

Error RemoteCudaApi::memcpy_h2d(cuda::DevPtr dst,
                                std::span<const std::uint8_t> src) {
  stats_.bytes_to_device += src.size();
  switch (config_.transfer) {
    case TransferMethod::kRpcArgs:
      return post("cuda.memcpy_h2d", proto::RPC_MEMCPY_H2D_PROC, dst,
                  bytes(src));
    case TransferMethod::kParallelSockets: {
      if (lanes_.count() == 0) return Error::kInvalidValue;
      return forward("cuda.memcpy_h2d", [&] {
        // Stripe concurrently with the RPC: the server handler starts
        // draining the lanes when it receives the call.
        std::thread sender(
            [&] { send_striped(lanes_, src, config_.profile, *clock_); });
        const auto err = from_wire(roundtrip<std::int32_t>(
            proto::RPC_TRANSFER_BEGIN_H2D_PROC, dst,
            static_cast<std::uint64_t>(src.size()),
            static_cast<std::uint32_t>(lanes_.count())));
        sender.join();
        return err;
      });
    }
    case TransferMethod::kSharedMemory: {
      // GPUdirect/shared-memory class transfer: no buffer, no wire — the
      // client writes device memory directly (local GPU only, §4.2), after
      // every call still in flight has executed.
      if (!config_.local_node) return Error::kInvalidValue;
      (void)drain();
      try {
        config_.local_node->device(0).memcpy_h2d(dst, src);
        return Error::kSuccess;
      } catch (const gpusim::MemoryError&) {
        return Error::kInvalidDevicePointer;
      }
    }
  }
  return Error::kInvalidValue;
}

Error RemoteCudaApi::memcpy_d2h(std::span<std::uint8_t> dst,
                                cuda::DevPtr src) {
  stats_.bytes_from_device += dst.size();
  switch (config_.transfer) {
    case TransferMethod::kRpcArgs:
      return call<proto::data_result>(
          "cuda.memcpy_d2h", proto::RPC_MEMCPY_D2H_PROC,
          [&](const proto::data_result& res) { return copy_out(res, dst); },
          src, static_cast<std::uint64_t>(dst.size()));
    case TransferMethod::kParallelSockets: {
      if (lanes_.count() == 0) return Error::kInvalidValue;
      return forward("cuda.memcpy_d2h", [&] {
        std::thread receiver(
            [&] { recv_striped(lanes_, dst, config_.profile, *clock_); });
        const auto err = from_wire(roundtrip<std::int32_t>(
            proto::RPC_TRANSFER_BEGIN_D2H_PROC, src,
            static_cast<std::uint64_t>(dst.size()),
            static_cast<std::uint32_t>(lanes_.count())));
        receiver.join();
        return err;
      });
    }
    case TransferMethod::kSharedMemory: {
      if (!config_.local_node) return Error::kInvalidValue;
      (void)drain();
      try {
        config_.local_node->device(0).memcpy_d2h(dst, src);
        return Error::kSuccess;
      } catch (const gpusim::MemoryError&) {
        return Error::kInvalidDevicePointer;
      }
    }
  }
  return Error::kInvalidValue;
}

Error RemoteCudaApi::memcpy_d2d(cuda::DevPtr dst, cuda::DevPtr src,
                                std::uint64_t size) {
  return post("cuda.memcpy_d2d", proto::RPC_MEMCPY_D2D_PROC, dst, src, size);
}

Error RemoteCudaApi::memcpy_h2d_async(cuda::DevPtr dst,
                                      std::span<const std::uint8_t> src,
                                      cuda::StreamId stream) {
  stats_.bytes_to_device += src.size();
  return post("cuda.memcpy_h2d_async", proto::RPC_MEMCPY_H2D_ASYNC_PROC, dst,
              bytes(src), stream);
}

Error RemoteCudaApi::memcpy_d2h_async(std::span<std::uint8_t> dst,
                                      cuda::DevPtr src,
                                      cuda::StreamId stream) {
  // The reply carries the bytes, so even the "async" D2H copy must wait
  // for it.
  stats_.bytes_from_device += dst.size();
  return call<proto::data_result>(
      "cuda.memcpy_d2h_async", proto::RPC_MEMCPY_D2H_ASYNC_PROC,
      [&](const proto::data_result& res) { return copy_out(res, dst); }, src,
      static_cast<std::uint64_t>(dst.size()), stream);
}

Error RemoteCudaApi::stream_wait_event(cuda::StreamId stream,
                                       cuda::EventId event) {
  return post("cuda.stream_wait_event", proto::RPC_STREAM_WAIT_EVENT_PROC,
              stream, event);
}

Error RemoteCudaApi::stream_create(cuda::StreamId& stream) {
  return call<proto::u64_result>("cuda.stream_create",
                                 proto::RPC_STREAM_CREATE_PROC,
                                 [&](const proto::u64_result& res) {
                                   stream = res.value;
                                   return from_wire(res.err);
                                 });
}

Error RemoteCudaApi::stream_destroy(cuda::StreamId stream) {
  return post("cuda.stream_destroy", proto::RPC_STREAM_DESTROY_PROC, stream);
}

Error RemoteCudaApi::stream_synchronize(cuda::StreamId stream) {
  return sync_point("cuda.stream_synchronize",
                    proto::RPC_STREAM_SYNCHRONIZE_PROC, stream);
}

Error RemoteCudaApi::device_synchronize() {
  return sync_point("cuda.device_synchronize",
                    proto::RPC_DEVICE_SYNCHRONIZE_PROC);
}

Error RemoteCudaApi::event_create(cuda::EventId& event) {
  return call<proto::u64_result>("cuda.event_create",
                                 proto::RPC_EVENT_CREATE_PROC,
                                 [&](const proto::u64_result& res) {
                                   event = res.value;
                                   return from_wire(res.err);
                                 });
}

Error RemoteCudaApi::event_destroy(cuda::EventId event) {
  return post("cuda.event_destroy", proto::RPC_EVENT_DESTROY_PROC, event);
}

Error RemoteCudaApi::event_record(cuda::EventId event, cuda::StreamId stream) {
  return post("cuda.event_record", proto::RPC_EVENT_RECORD_PROC, event,
              stream);
}

Error RemoteCudaApi::event_synchronize(cuda::EventId event) {
  return sync_point("cuda.event_synchronize",
                    proto::RPC_EVENT_SYNCHRONIZE_PROC, event);
}

Error RemoteCudaApi::event_elapsed_ms(float& ms, cuda::EventId start,
                                      cuda::EventId stop) {
  return call<proto::float_result>("cuda.event_elapsed_ms",
                                   proto::RPC_EVENT_ELAPSED_PROC,
                                   [&](const proto::float_result& res) {
                                     ms = res.value;
                                     return from_wire(res.err);
                                   },
                                   start, stop);
}

Error RemoteCudaApi::module_load(cuda::ModuleId& module,
                                 std::span<const std::uint8_t> image) {
  return forward("cuda.module_load", [&] {
    if (config_.module_cache) {
      // Two-phase negotiation: probe the server's content-addressed cache
      // with the image hash plus a proof of possession (computable only
      // from the bytes, bound to this tenant); only a miss pays for the
      // upload (which then populates the cache). kCacheMiss is the
      // negotiation answer, never an application-visible error.
      const auto proof = modcache::possession_proof(config_.tenant, image);
      const auto probe = roundtrip<proto::u64_result>(
          proto::RPC_MODULE_LOAD_CACHED_PROC, modcache::hash_image(image),
          std::vector<std::uint8_t>(proof.begin(), proof.end()));
      if (from_wire(probe.err) != Error::kCacheMiss) {
        if (from_wire(probe.err) == Error::kSuccess) {
          module = probe.value;
          ++stats_.module_cache_hits;
          stats_.module_bytes_saved += image.size();
        }
        return from_wire(probe.err);
      }
    }
    const auto res = roundtrip<proto::u64_result>(proto::RPC_MODULE_LOAD_PROC,
                                                  bytes(image));
    module = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::module_unload(cuda::ModuleId module) {
  return post("cuda.module_unload", proto::RPC_MODULE_UNLOAD_PROC, module);
}

Error RemoteCudaApi::module_get_function(cuda::FuncId& func,
                                         cuda::ModuleId module,
                                         const std::string& name) {
  return call<proto::u64_result>("cuda.module_get_function",
                                 proto::RPC_MODULE_GET_FUNCTION_PROC,
                                 [&](const proto::u64_result& res) {
                                   func = res.value;
                                   return from_wire(res.err);
                                 },
                                 module, name);
}

Error RemoteCudaApi::module_get_global(cuda::DevPtr& ptr,
                                       cuda::ModuleId module,
                                       const std::string& name) {
  return call<proto::u64_result>("cuda.module_get_global",
                                 proto::RPC_MODULE_GET_GLOBAL_PROC,
                                 [&](const proto::u64_result& res) {
                                   ptr = res.value;
                                   return from_wire(res.err);
                                 },
                                 module, name);
}

Error RemoteCudaApi::launch_kernel(cuda::FuncId func, cuda::Dim3 grid,
                                   cuda::Dim3 block,
                                   std::uint32_t shared_bytes,
                                   cuda::StreamId stream,
                                   std::span<const std::uint8_t> params) {
  // The C client's <<<...>>> compatibility logic runs here; the Rust path
  // omits it (paper §4.2, ~6.3% faster kernel launches).
  clock_->advance(config_.flavor.launch_extra_ns);
  return post("cuda.launch_kernel", proto::RPC_LAUNCH_KERNEL_PROC, func,
              to_wire(grid), to_wire(block), shared_bytes, stream,
              bytes(params));
}

Error RemoteCudaApi::blas_sgemm(int m, int n, int k, float alpha,
                                cuda::DevPtr a, int lda, cuda::DevPtr b,
                                int ldb, float beta, cuda::DevPtr c,
                                int ldc) {
  return post("cuda.blas_sgemm", proto::RPC_BLAS_SGEMM_PROC, m, n, k, alpha,
              a, lda, b, ldb, beta, c, ldc);
}

Error RemoteCudaApi::blas_sgemv(int m, int n, float alpha, cuda::DevPtr a,
                                int lda, cuda::DevPtr x, float beta,
                                cuda::DevPtr y) {
  return post("cuda.blas_sgemv", proto::RPC_BLAS_SGEMV_PROC, m, n, alpha, a,
              lda, x, beta, y);
}

Error RemoteCudaApi::blas_saxpy(int n, float alpha, cuda::DevPtr x,
                                cuda::DevPtr y) {
  return post("cuda.blas_saxpy", proto::RPC_BLAS_SAXPY_PROC, n, alpha, x, y);
}

Error RemoteCudaApi::blas_snrm2(int n, cuda::DevPtr x, cuda::DevPtr result) {
  return post("cuda.blas_snrm2", proto::RPC_BLAS_SNRM2_PROC, n, x, result);
}

Error RemoteCudaApi::solver_spotrf(int n, cuda::DevPtr a, int lda,
                                   cuda::DevPtr info) {
  return post("cuda.solver_spotrf", proto::RPC_SOLVER_SPOTRF_PROC, n, a, lda,
              info);
}

Error RemoteCudaApi::solver_spotrs(int n, int nrhs, cuda::DevPtr a, int lda,
                                   cuda::DevPtr b, int ldb,
                                   cuda::DevPtr info) {
  return post("cuda.solver_spotrs", proto::RPC_SOLVER_SPOTRS_PROC, n, nrhs, a,
              lda, b, ldb, info);
}

Error RemoteCudaApi::solver_sgetrf(int n, cuda::DevPtr a, int lda,
                                   cuda::DevPtr ipiv, cuda::DevPtr info) {
  return post("cuda.solver_sgetrf", proto::RPC_SOLVER_SGETRF_PROC, n, a, lda,
              ipiv, info);
}

Error RemoteCudaApi::solver_sgetrs(int n, int nrhs, cuda::DevPtr a, int lda,
                                   cuda::DevPtr ipiv, cuda::DevPtr b, int ldb,
                                   cuda::DevPtr info) {
  return post("cuda.solver_sgetrs", proto::RPC_SOLVER_SGETRS_PROC, n, nrhs, a,
              lda, ipiv, b, ldb, info);
}

Error RemoteCudaApi::checkpoint(const std::string& path) {
  return call<std::int32_t>("cuda.checkpoint", proto::RPC_CHECKPOINT_PROC,
                            from_wire, path);
}

Error RemoteCudaApi::restore(const std::string& path) {
  return call<std::int32_t>("cuda.restore", proto::RPC_RESTORE_PROC,
                            from_wire, path);
}

}  // namespace cricket::core
