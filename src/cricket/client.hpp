// RemoteCudaApi: the client-side Cricket virtualization layer.
//
// This is the component the paper inserts "between GPU applications and the
// CUDA libraries" (Fig. 1/3): it implements the same CudaApi the local
// driver facade implements, but forwards every call as an ONC RPC — so an
// application is recompiled against the same interface and runs unmodified
// on a unikernel, a VM, or bare Linux, exactly like the paper's Rust
// applications (§3.5).
//
// Every call goes through one rpc::RpcClient, whose window is set by
// ClientConfig::pipeline:
//   * off (default, the paper's stack): max_outstanding 1, one synchronous
//     RPC per CUDA call on the caller's thread ("the RPC library is
//     single-threaded", §4.2);
//   * on: max_outstanding = pipeline.depth. Calls whose only result is an
//     error code — kernel launches, H2D copies, event records — are put on
//     the wire (or into the small-call batcher) and return at once; a
//     failure surfaces at the next synchronization point, exactly as real
//     CUDA reports asynchronous errors. Calls that return values still block
//     for their own reply. Replies are read, and lost calls re-sent, on the
//     caller's thread whenever it waits: a value-returning call, a full
//     window, a sync point. The server runs each session's calls one at a
//     time in order, so results are bit-identical.
// Either way the RPC connection starts no thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "cricket/transfer.hpp"
#include "cudart/api.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "rpc/client.hpp"
#include "sim/sim_clock.hpp"

namespace cricket::core {

struct ClientConfig {
  /// libtirpc-C vs RPC-Lib-Rust client behaviour (per-call overhead, kernel
  /// launch compatibility logic).
  env::ClientFlavor flavor = {};
  /// Cost profile of the client's network path (used for out-of-band lane
  /// charging; the main connection's transport charges itself).
  vnet::NetworkProfile profile = {};
  /// RPC window: off = one synchronous RPC per call (the paper's client);
  /// on = this many calls in flight with optional small-call batching.
  /// Typically env::Environment::pipeline.
  env::PipelineConfig pipeline = {};
  /// Bulk memcpy strategy (§4.2). Unikernels support only kRpcArgs.
  TransferMethod transfer = TransferMethod::kRpcArgs;
  /// Required for kSharedMemory: the co-located GPU node whose address
  /// space the client shares.
  cuda::GpuNode* local_node = nullptr;
  /// Per-call deadlines + idempotency-aware retry for the RPC core
  /// (faultnet). Only enable `retry.assume_at_most_once` against a server
  /// running the duplicate-request cache — otherwise a retried kernel
  /// launch could execute twice.
  rpc::RetryPolicy retry{};
  /// Fresh transport to the same server after a connection-level failure
  /// or a migration redirect (point it at a migrate::RedirectingConnector
  /// to follow a live-migrated tenant to its new server).
  std::function<std::unique_ptr<rpc::Transport>()> reconnect{};
  /// Tenant identity presented to a multi-tenant server: when non-empty,
  /// every call carries an AUTH_SYS credential with this machinename, and
  /// the server binds the session to the tenant registered under it.
  std::string tenant{};
  /// AUTH_SYS stamp distinguishing this client from other clients of the
  /// same tenant. The duplicate-request cache and migration adoption both
  /// key on the credential hash, so two live clients must never share one.
  /// 0 (default) auto-assigns a process-unique value; set it explicitly
  /// only when a restarted client must keep its previous identity.
  std::uint32_t auth_stamp = 0;
  /// Two-phase module-load negotiation against the server's
  /// content-addressed cache (env::with_module_cache): module_load first
  /// sends the truncated SHA-256 image hash plus a proof of possession;
  /// only a cache miss pays for the full upload. Transparent — a server
  /// without the cache always answers kCacheMiss and the client falls back,
  /// so it is safe to leave on.
  bool module_cache = false;
};

/// Process-unique AUTH_SYS stamp source backing the auto-assignment above.
[[nodiscard]] std::uint32_t next_auth_stamp() noexcept;

struct RemoteStats {
  std::uint64_t api_calls = 0;  // forwarded CUDA API calls (paper §4.1)
  /// Of those, the fire-and-forget ones (pipelined only).
  std::uint64_t pipelined = 0;
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_from_device = 0;
  /// Module loads answered by the server's content-addressed cache, and
  /// the image bytes that therefore never crossed the wire.
  std::uint64_t module_cache_hits = 0;
  std::uint64_t module_bytes_saved = 0;
};

class RemoteCudaApi final : public cuda::CudaApi {
 public:
  /// `transport` carries the RPC connection (typically from env::connect);
  /// `lanes` are optional parallel-socket side channels.
  RemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                sim::SimClock& clock, ClientConfig config = {},
                TransferLanes lanes = {});
  ~RemoteCudaApi() override;

  cuda::Error get_device_count(int& count) override;
  cuda::Error set_device(int device) override;
  cuda::Error get_device(int& device) override;
  cuda::Error get_device_properties(cuda::DeviceInfo& info,
                                    int device) override;

  cuda::Error malloc(cuda::DevPtr& ptr, std::uint64_t size) override;
  cuda::Error free(cuda::DevPtr ptr) override;
  cuda::Error memset(cuda::DevPtr ptr, int value, std::uint64_t size) override;
  cuda::Error memcpy_h2d(cuda::DevPtr dst,
                         std::span<const std::uint8_t> src) override;
  cuda::Error memcpy_d2h(std::span<std::uint8_t> dst,
                         cuda::DevPtr src) override;
  cuda::Error memcpy_d2d(cuda::DevPtr dst, cuda::DevPtr src,
                         std::uint64_t size) override;
  cuda::Error memcpy_h2d_async(cuda::DevPtr dst,
                               std::span<const std::uint8_t> src,
                               cuda::StreamId stream) override;
  cuda::Error memcpy_d2h_async(std::span<std::uint8_t> dst, cuda::DevPtr src,
                               cuda::StreamId stream) override;

  cuda::Error stream_create(cuda::StreamId& stream) override;
  cuda::Error stream_wait_event(cuda::StreamId stream,
                                cuda::EventId event) override;
  cuda::Error stream_destroy(cuda::StreamId stream) override;
  cuda::Error stream_synchronize(cuda::StreamId stream) override;
  cuda::Error device_synchronize() override;
  cuda::Error event_create(cuda::EventId& event) override;
  cuda::Error event_destroy(cuda::EventId event) override;
  cuda::Error event_record(cuda::EventId event,
                           cuda::StreamId stream) override;
  cuda::Error event_synchronize(cuda::EventId event) override;
  cuda::Error event_elapsed_ms(float& ms, cuda::EventId start,
                               cuda::EventId stop) override;

  cuda::Error module_load(cuda::ModuleId& module,
                          std::span<const std::uint8_t> image) override;
  cuda::Error module_unload(cuda::ModuleId module) override;
  cuda::Error module_get_function(cuda::FuncId& func, cuda::ModuleId module,
                                  const std::string& name) override;
  cuda::Error module_get_global(cuda::DevPtr& ptr, cuda::ModuleId module,
                                const std::string& name) override;
  cuda::Error launch_kernel(cuda::FuncId func, cuda::Dim3 grid,
                            cuda::Dim3 block, std::uint32_t shared_bytes,
                            cuda::StreamId stream,
                            std::span<const std::uint8_t> params) override;

  cuda::Error blas_sgemm(int m, int n, int k, float alpha, cuda::DevPtr a,
                         int lda, cuda::DevPtr b, int ldb, float beta,
                         cuda::DevPtr c, int ldc) override;
  cuda::Error blas_sgemv(int m, int n, float alpha, cuda::DevPtr a, int lda,
                         cuda::DevPtr x, float beta, cuda::DevPtr y) override;
  cuda::Error blas_saxpy(int n, float alpha, cuda::DevPtr x,
                         cuda::DevPtr y) override;
  cuda::Error blas_snrm2(int n, cuda::DevPtr x, cuda::DevPtr result) override;
  cuda::Error solver_sgetrf(int n, cuda::DevPtr a, int lda, cuda::DevPtr ipiv,
                            cuda::DevPtr info) override;
  cuda::Error solver_sgetrs(int n, int nrhs, cuda::DevPtr a, int lda,
                            cuda::DevPtr ipiv, cuda::DevPtr b, int ldb,
                            cuda::DevPtr info) override;
  cuda::Error solver_spotrf(int n, cuda::DevPtr a, int lda,
                            cuda::DevPtr info) override;
  cuda::Error solver_spotrs(int n, int nrhs, cuda::DevPtr a, int lda,
                            cuda::DevPtr b, int ldb, cuda::DevPtr info) override;

  /// Cricket extensions beyond the CUDA surface.
  cuda::Error checkpoint(const std::string& path);
  cuda::Error restore(const std::string& path);

  /// Waits for every fire-and-forget call, folding any failure into the
  /// sticky error, and returns it (kSuccess when clean). Serial clients have
  /// nothing in flight, so this only reports the sticky error.
  cuda::Error drain();

  /// Severs the connection; every subsequent call returns kRpcFailure.
  /// Models the GPU node vanishing under the client.
  void disconnect();

  [[nodiscard]] const RemoteStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }

  /// kRpcFailure once the connection is declared unrecoverable (retry
  /// budget exhausted or the transport died with no reconnect path).
  /// Graceful degradation: every later call short-circuits to this error
  /// instead of hammering a dead link — the paper's unikernel guest keeps
  /// running and sees a CUDA error code, not a crash. When pipelined it also
  /// holds the first failure of a fire-and-forget call until the next
  /// synchronization point reports (and clears) it.
  [[nodiscard]] cuda::Error sticky_error() const noexcept {
    return sticky_error_;
  }

 private:
  /// Forwards one CUDA API call: bumps counters, opens the kClientCall
  /// span (`name` is the stable "cuda.<entry point>" label), charges the
  /// per-call flavor cost, runs `fn` (which issues the RPCs through
  /// roundtrip) and maps RPC failures to CUDA errors.
  template <typename Fn>
  cuda::Error forward(const char* name, Fn&& fn);
  /// Forwards `proc` and waits for its reply, handed to `consume`.
  template <typename Res, typename Consume, typename... Args>
  cuda::Error call(const char* name, std::uint32_t proc, Consume&& consume,
                   const Args&... args);
  /// Forwards a call whose only result is an error code: fire-and-forget
  /// when pipelined (success means "queued"), `call` when serial.
  template <typename... Args>
  cuda::Error post(const char* name, std::uint32_t proc, const Args&... args);
  /// A synchronization point: forwards `proc`, then reports the first error
  /// since the previous one.
  template <typename... Args>
  cuda::Error sync_point(const char* name, std::uint32_t proc,
                         const Args&... args);
  /// A parallel-socket copy: `stripes(cancel)` moves this side of the
  /// payload over the lanes on its own thread while the begin call `proc`
  /// has the server move the other side. After any failure the lanes may
  /// hold part of a payload, so they are shut, and every later parallel
  /// copy fails with kRpcFailure.
  template <typename Stripes>
  cuda::Error parallel_copy(const char* name, std::uint32_t proc,
                            cuda::DevPtr ptr, std::uint64_t size,
                            Stripes&& stripes);
  /// One RPC, waiting for its reply; throws like the RPC client does.
  template <typename Res, typename... Args>
  Res roundtrip(std::uint32_t proc, const Args&... args);

  /// The CUDA error an RPC-layer failure surfaces as. Quota and migration
  /// rejections are per-call; a spent deadline or a dead transport makes
  /// kRpcFailure sticky.
  cuda::Error fail(const std::exception& e);
  /// Records `err` as the pending sticky error unless one is already held.
  void absorb(cuda::Error err);
  /// Completes fire-and-forget calls oldest first, absorbing their errors:
  /// those already answered, or with `all` every one (blocking).
  void settle(bool all);

  sim::SimClock* clock_;
  ClientConfig config_;
  TransferLanes lanes_;
  bool lanes_shut_ = false;
  rpc::RpcClient rpc_;
  std::deque<rpc::TypedFuture<std::int32_t>> pending_;
  RemoteStats stats_;
  cuda::Error sticky_error_ = cuda::Error::kSuccess;
};

}  // namespace cricket::core
