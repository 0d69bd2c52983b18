// Content-addressed module cache (src/modcache) and fatbin ingest
// hardening: LZ round-trip/hostile-stream properties, forged-length
// refusal, cache unit semantics (refcounts, quota, LRU eviction), the
// two-phase rpc_module_load_cached negotiation end-to-end (sync + async
// clients, faulty networks, cache-less servers), and warm migration
// (cached modules travel as hashes; targets seed and adoption
// re-references without re-charging).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "fatbin/cubin.hpp"
#include "fatbin/fatbin.hpp"
#include "fatbin/lz.hpp"
#include "migrate/service.hpp"
#include "migrate/state.hpp"
#include "modcache/module_cache.hpp"
#include "rpc/transport.hpp"
#include "sim/rng.hpp"
#include "tenancy/session_manager.hpp"

namespace cricket::modcache {
namespace {

using namespace std::chrono_literals;
using core::CricketServer;
using core::RemoteCudaApi;
using cuda::Error;

/// Distinct, deterministic module images: the variant lands in the kernel
/// name and the pseudo-ISA seed, so every variant has a different content
/// hash while staying a valid cubin.
std::vector<std::uint8_t> test_image(int variant, std::size_t code_bytes = 2048) {
  fatbin::CubinImage img;
  img.sm_arch = 75;
  fatbin::KernelDescriptor k;
  k.name = "cache_mark_" + std::to_string(variant);
  k.params = {{.size = 8, .align = 8, .is_pointer = true}};
  img.kernels.push_back(k);
  img.code = fatbin::make_pseudo_isa(code_bytes,
                                     static_cast<std::uint64_t>(variant) + 3);
  return fatbin::cubin_serialize(img);
}

// ------------------------- LZ codec hardening ------------------------------

TEST(LzHardening, RoundTripPropertySweep) {
  sim::Xoshiro256ss rng(7);
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back({});                                  // empty
  inputs.push_back({0x42});                              // single byte
  inputs.emplace_back(100'000, std::uint8_t{0});         // long zero run
  inputs.emplace_back(65'600, std::uint8_t{0xAB});       // run past kWindow
  for (const std::size_t n : {1u, 3u, 127u, 128u, 129u, 4096u, 70'000u}) {
    std::vector<std::uint8_t> random(n);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.next());
    inputs.push_back(std::move(random));
    // Repetitive-but-not-constant: realistic pseudo-ISA compresses well.
    inputs.push_back(fatbin::make_pseudo_isa(n, n));
  }
  for (const auto& input : inputs) {
    const auto packed = fatbin::lz_compress(input);
    const auto unpacked = fatbin::lz_decompress(packed);
    ASSERT_EQ(unpacked, input) << "round-trip of " << input.size() << " bytes";
    // No valid stream outruns the declared worst-case expansion bound.
    EXPECT_LE(input.size(), packed.size() * fatbin::kMaxExpansion);
  }
}

/// A ratio bomb: one literal byte, then max-length matches at distance 1 —
/// the densest valid encoding (~44x per stream byte).
std::vector<std::uint8_t> ratio_bomb(std::size_t tokens) {
  std::vector<std::uint8_t> bomb = {0x00, 0x5A};  // literal run of 1: 'Z'
  for (std::size_t i = 0; i < tokens; ++i) {
    bomb.push_back(0xFF);  // match, length kMaxMatch
    bomb.push_back(0x01);  // distance 1 (little-endian)
    bomb.push_back(0x00);
  }
  return bomb;
}

TEST(LzHardening, RatioBombStopsAtTheOutputCap) {
  const auto bomb = ratio_bomb(1000);  // would decompress to ~131 KB
  // Direct decompression refuses once output would pass the cap; the peak
  // allocation is bounded by the cap, not the bomb's implied size.
  EXPECT_THROW((void)fatbin::lz_decompress(bomb, 4096), fatbin::LzError);
  // The server ingest path bounds bare streams by min(cap, size * 44).
  EXPECT_THROW((void)fatbin::extract_metadata(bomb, 75, 4096),
               fatbin::LzError);
  // Even under the default cap a fully-decompressed bomb is not a cubin.
  EXPECT_THROW((void)fatbin::extract_metadata(ratio_bomb(8), 75),
               fatbin::CubinError);
}

TEST(LzHardening, HostileStreamCorpusRejected) {
  using Bytes = std::vector<std::uint8_t>;
  const struct {
    const char* name;
    Bytes stream;
  } corpus[] = {
      {"match distance zero", {0x00, 0x5A, 0x80, 0x00, 0x00}},
      {"distance past output start", {0x00, 0x5A, 0x80, 0x10, 0x00}},
      {"match before any output", {0x84, 0x01, 0x00}},
      {"truncated match token", {0x00, 0x5A, 0xFF, 0x01}},
      {"bare control byte", {0x9C}},
      {"truncated literal run", {0x05, 0x61, 0x62}},
  };
  for (const auto& bad : corpus) {
    EXPECT_THROW((void)fatbin::lz_decompress(bad.stream), fatbin::LzError)
        << bad.name;
    // Through the server ingest path the same streams must also die cleanly
    // (they are neither cubins nor fatbins, so they hit the bare-LZ branch).
    try {
      (void)fatbin::extract_metadata(bad.stream, 75);
      FAIL() << bad.name << " accepted by extract_metadata";
    } catch (const fatbin::LzError&) {
    } catch (const fatbin::CubinError&) {
    }
  }
}

// Fatbin layout: magic(4) version(4) nentries(4), then per entry
// sm_arch(4) flags(4) uncompressed_len(8) payload_len(4) payload.
constexpr std::size_t kLenFieldOffset = 4 + 4 + 4 + 4 + 4;

void patch_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(LzHardening, ForgedUncompressedLenRefusedAtParse) {
  fatbin::Fatbin fb;
  fb.add_raw(75, test_image(0), /*compress=*/true);
  const auto clean = fb.serialize();
  ASSERT_NO_THROW((void)fatbin::Fatbin::parse(clean));
  const std::uint64_t plen = fb.entries()[0].payload.size();

  // Over the global module cap: refused no matter the payload.
  auto huge = clean;
  patch_u64(huge, kLenFieldOffset, fatbin::kMaxModuleBytes + 1);
  EXPECT_THROW((void)fatbin::Fatbin::parse(huge), fatbin::CubinError);

  // Under the cap but beyond what any valid token stream could produce.
  auto implausible = clean;
  patch_u64(implausible, kLenFieldOffset,
            plen * fatbin::kMaxExpansion + 1);
  EXPECT_THROW((void)fatbin::Fatbin::parse(implausible), fatbin::CubinError);

  // Uncompressed entries must declare exactly their payload size.
  fatbin::Fatbin raw;
  raw.add_raw(75, test_image(0), /*compress=*/false);
  auto mismatched = raw.serialize();
  patch_u64(mismatched, kLenFieldOffset, raw.entries()[0].payload.size() + 1);
  EXPECT_THROW((void)fatbin::Fatbin::parse(mismatched), fatbin::CubinError);
}

TEST(LzHardening, ModuleByteCapPlumbsThroughLoadAndExtract) {
  const auto image = test_image(1, 8192);
  // Under its own size the image is refused up front, compressed or not.
  EXPECT_THROW((void)fatbin::extract_metadata(image, 75, image.size() - 1),
               fatbin::CubinError);
  fatbin::Fatbin fb;
  fb.add_raw(75, image, /*compress=*/true);
  EXPECT_THROW((void)fb.load(75, image.size() - 1), fatbin::CubinError);
  EXPECT_NO_THROW((void)fb.load(75, image.size()));
}

// --------------------------- SHA-256 / hash_image --------------------------

std::vector<std::uint8_t> ascii(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

std::string hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

TEST(Sha256Impl, FipsKnownVectors) {
  EXPECT_EQ(hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(sha256(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex(sha256(ascii(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One million 'a's, fed in uneven chunks to cross block boundaries.
  const std::vector<std::uint8_t> as(1'000'000, std::uint8_t{'a'});
  Sha256 ctx;
  std::size_t off = 0;
  for (const std::size_t chunk : {1u, 63u, 64u, 65u, 1000u}) {
    ctx.update(std::span<const std::uint8_t>(as).subspan(off, chunk));
    off += chunk;
  }
  ctx.update(std::span<const std::uint8_t>(as).subspan(off));
  EXPECT_EQ(hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(HashImage, TruncatedSha256KnownVectorsAndDispersion) {
  // First 64 bits (big-endian) of the SHA-256 vectors above.
  EXPECT_EQ(hash_image({}), 0xE3B0C44298FC1C14ull);
  EXPECT_EQ(hash_image(ascii("abc")), 0xBA7816BF8F01CFEAull);
  const auto img0 = test_image(0);
  const auto img1 = test_image(1);
  EXPECT_EQ(hash_image(img0), hash_image(img0));  // deterministic
  EXPECT_NE(hash_image(img0), hash_image(img1));  // variants diverge
}

TEST(PossessionProof, BindsTenantAndImage) {
  const auto image = test_image(0);
  const Digest alice = possession_proof("alice", image);
  // Deterministic for (name, bytes); different from either ingredient alone.
  EXPECT_TRUE(digest_equal(alice, possession_proof("alice", image)));
  EXPECT_FALSE(digest_equal(alice, possession_proof("bob", image)));
  EXPECT_FALSE(digest_equal(alice, possession_proof("alice", test_image(1))));
  // Domain-separated from the plain content digest.
  EXPECT_FALSE(digest_equal(alice, sha256(image)));
}

// --------------------------- ModuleCache unit ------------------------------

struct ModuleCacheUnit : ::testing::Test {
  ModuleCacheUnit()
      : tenants(clock, {.device_count = 2, .default_tenant = ""}) {}

  tenancy::TenantId add(const std::string& name, std::uint64_t mem_quota) {
    tenancy::TenantSpec spec;
    spec.name = name;
    spec.quota.device_mem_bytes = mem_quota;
    return tenants.register_tenant(spec);
  }

  ModuleCache make(std::uint64_t max_bytes) {
    return ModuleCache({.max_bytes = max_bytes}, &tenants,
                       [this](std::uint32_t device, std::uint64_t module) {
                         unloads.emplace_back(device, module);
                       });
  }

  /// A well-formed probe: hash and possession proof both derived from the
  /// image, the way a client holding the bytes computes them.
  static ModuleCache::Result probe(ModuleCache& cache,
                                   std::span<const std::uint8_t> image,
                                   std::uint32_t device,
                                   tenancy::TenantId tenant,
                                   std::string_view name) {
    const Digest proof = possession_proof(name, image);
    return cache.acquire(hash_image(image), device, tenant, name, proof);
  }

  sim::SimClock clock;
  tenancy::SessionManager tenants;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> unloads;
};

TEST_F(ModuleCacheUnit, MissInsertHitLifecycle) {
  const auto alice = add("alice", 1 << 20);
  auto cache = make(1 << 20);
  const std::vector<std::uint8_t> image(64, 0x11);
  const std::uint64_t hash = hash_image(image);

  auto res = probe(cache, image, 0, alice, "alice");
  EXPECT_EQ(res.outcome, ModuleCache::Outcome::kMiss);

  res = cache.insert(hash, image, 0, /*module=*/41, alice);
  ASSERT_EQ(res.outcome, ModuleCache::Outcome::kHit);
  EXPECT_EQ(res.module, 41u);
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());

  // Second reference by the same tenant: same module, no second charge.
  res = probe(cache, image, 0, alice, "alice");
  ASSERT_EQ(res.outcome, ModuleCache::Outcome::kHit);
  EXPECT_EQ(res.module, 41u);
  EXPECT_EQ(res.size, image.size());
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());

  // The charge lifts only on the last release; the module stays warm.
  cache.release(hash, 0, alice);
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());
  cache.release(hash, 0, alice);
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
  EXPECT_TRUE(unloads.empty());
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_EQ(probe(cache, image, 0, alice, "alice").outcome,
            ModuleCache::Outcome::kHit);
}

TEST_F(ModuleCacheUnit, PerTenantChargesAndQuotaRefusal) {
  const auto alice = add("alice", 1 << 20);
  const auto bob = add("bob", 16);  // cannot cover the image
  auto cache = make(1 << 20);
  const std::vector<std::uint8_t> image(64, 0x22);
  const std::uint64_t hash = hash_image(image);
  ASSERT_EQ(cache.insert(hash, image, 0, 7, alice).outcome,
            ModuleCache::Outcome::kHit);

  // A refused charge takes no reference and leaves accounting untouched.
  EXPECT_EQ(probe(cache, image, 0, bob, "bob").outcome,
            ModuleCache::Outcome::kQuotaExceeded);
  EXPECT_EQ(tenants.stats(bob).mem_used_bytes, 0u);
  // Alice's standing is unaffected by Bob's refusal.
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());
}

TEST_F(ModuleCacheUnit, CrossDevicePromotionNeedsInstance) {
  const auto alice = add("alice", 1 << 20);
  auto cache = make(1 << 20);
  const std::vector<std::uint8_t> image(64, 0x33);
  const std::uint64_t hash = hash_image(image);
  ASSERT_EQ(cache.insert(hash, image, 0, 7, alice).outcome,
            ModuleCache::Outcome::kHit);

  // Known hash, bytes resident, but no instance on device 1: the caller is
  // told to instantiate locally from the cached bytes (zero wire traffic).
  // That answer is a promotion, not a hit — the hit counter only moves when
  // a reference is actually taken.
  EXPECT_EQ(probe(cache, image, 1, alice, "alice").outcome,
            ModuleCache::Outcome::kNeedInstance);
  EXPECT_EQ(cache.stats().promotions, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  const auto bytes = cache.image_bytes(hash);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(*bytes, image);
  EXPECT_EQ(cache.insert(hash, *bytes, 1, 8, alice).outcome,
            ModuleCache::Outcome::kHit);
  EXPECT_EQ(probe(cache, image, 1, alice, "alice").module, 8u);
  EXPECT_EQ(probe(cache, image, 0, alice, "alice").module, 7u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST_F(ModuleCacheUnit, ConcurrentLoadRaceKeepsTheCanonicalInstance) {
  const auto alice = add("alice", 1 << 20);
  auto cache = make(1 << 20);
  const std::vector<std::uint8_t> image(64, 0x44);
  const std::uint64_t hash = hash_image(image);
  ASSERT_EQ(cache.insert(hash, image, 0, 7, alice).module, 7u);
  // A second loader raced the same image: its redundant module is unloaded
  // and its reference lands on the winner.
  const auto res = cache.insert(hash, image, 0, 9, alice);
  ASSERT_EQ(res.outcome, ModuleCache::Outcome::kHit);
  EXPECT_EQ(res.module, 7u);
  ASSERT_EQ(unloads.size(), 1u);
  EXPECT_EQ(unloads[0], (std::pair<std::uint32_t, std::uint64_t>{0, 9}));
}

TEST_F(ModuleCacheUnit, LruEvictionIsIdleOnlyAndBudgetBounded) {
  const auto alice = add("alice", 1 << 20);
  const std::vector<std::uint8_t> a(100, 0xA0), b(100, 0xB0), c(100, 0xC0);
  auto cache = make(250);  // room for two resident images, not three

  ASSERT_EQ(cache.insert(hash_image(a), a, 0, 1, alice).outcome,
            ModuleCache::Outcome::kHit);
  ASSERT_EQ(cache.insert(hash_image(b), b, 0, 2, alice).outcome,
            ModuleCache::Outcome::kHit);
  cache.release(hash_image(a), 0, alice);  // a idle, b still live

  // Inserting c passes the budget: the idle LRU entry (a) is evicted and
  // its instance leaves the device; the live entry (b) is untouchable.
  ASSERT_EQ(cache.insert(hash_image(c), c, 0, 3, alice).outcome,
            ModuleCache::Outcome::kHit);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_entries, 2u);
  EXPECT_LE(stats.resident_bytes, 250u);
  ASSERT_EQ(unloads.size(), 1u);
  EXPECT_EQ(unloads[0], (std::pair<std::uint32_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(probe(cache, a, 0, alice, "alice").outcome,
            ModuleCache::Outcome::kMiss);
  EXPECT_EQ(probe(cache, b, 0, alice, "alice").module, 2u);
}

TEST_F(ModuleCacheUnit, AllLiveEntriesMayExceedTheBudget) {
  const auto alice = add("alice", 1 << 20);
  const std::vector<std::uint8_t> a(100, 0xA1), b(100, 0xB1);
  auto cache = make(150);
  ASSERT_EQ(cache.insert(hash_image(a), a, 0, 1, alice).outcome,
            ModuleCache::Outcome::kHit);
  ASSERT_EQ(cache.insert(hash_image(b), b, 0, 2, alice).outcome,
            ModuleCache::Outcome::kHit);
  // Both referenced: nothing evictable, the budget is temporarily exceeded.
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 200u);
}

TEST_F(ModuleCacheUnit, SeedAndAdoptSkipChargingUntilRelease) {
  const auto alice = add("alice", 1 << 20);
  auto cache = make(1 << 20);
  // Seeding mirrors a migration import: the bytes stay on the source fleet,
  // only hash, size, and alice's source-computed possession proof travel.
  const auto image = test_image(10);
  const std::uint64_t hash = hash_image(image);
  cache.seed(hash, image.size(), /*device=*/1, /*module=*/99, "alice",
             possession_proof("alice", image));
  // Adoption re-references without charging: the imported tenant
  // accounting already carries the source's charge.
  const auto adopted = cache.adopt(hash, 1, alice);
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(*adopted, 99u);
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
  // Unknown (hash, device) pairs refuse adoption cleanly.
  EXPECT_FALSE(cache.adopt(hash, 0, alice).has_value());
  EXPECT_FALSE(cache.adopt(0xBEEF, 1, alice).has_value());

  // A seeded entry's bytes never reached this server: probes on other
  // devices miss (only a full re-upload can instantiate it there), while
  // the seeded device answers alice's probe via the imported proof.
  EXPECT_FALSE(cache.image_bytes(hash).has_value());
  EXPECT_EQ(probe(cache, image, 0, alice, "alice").outcome,
            ModuleCache::Outcome::kMiss);
  EXPECT_EQ(probe(cache, image, 1, alice, "alice").module, 99u);
}

TEST_F(ModuleCacheUnit, ProofRejectionIsIndistinguishableFromMiss) {
  const auto alice = add("alice", 1 << 20);
  const auto bob = add("bob", 1 << 20);
  auto cache = make(1 << 20);
  const auto image = test_image(11);
  const std::uint64_t hash = hash_image(image);
  ASSERT_EQ(cache.insert(hash, image, 0, 7, alice).outcome,
            ModuleCache::Outcome::kHit);

  // A bare hash is worth nothing: no proof, a garbage proof, a wrong-size
  // proof, and a replayed proof computed under someone else's name must all
  // answer exactly like an unknown hash — no reference, no oracle.
  const Digest alices = possession_proof("alice", image);
  const struct {
    const char* name;
    std::vector<std::uint8_t> proof;
  } bad[] = {
      {"empty", {}},
      {"wrong size", std::vector<std::uint8_t>(16, 0xAA)},
      {"garbage", std::vector<std::uint8_t>(32, 0xAA)},
      {"replayed under another tenant",
       {alices.begin(), alices.end()}},
  };
  for (const auto& attempt : bad) {
    const auto res = cache.acquire(hash, 0, bob, "bob", attempt.proof);
    EXPECT_EQ(res.outcome, ModuleCache::Outcome::kMiss) << attempt.name;
    EXPECT_EQ(res.module, 0u) << attempt.name;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.proof_rejects, 4u);
  EXPECT_EQ(stats.misses, 4u);  // wire answers are ordinary misses
  EXPECT_EQ(tenants.stats(bob).mem_used_bytes, 0u);

  // Bob holding the real bytes proves possession under his own name.
  EXPECT_EQ(probe(cache, image, 0, bob, "bob").module, 7u);
}

TEST_F(ModuleCacheUnit, CollisionNeverSubstitutesResidentBytes) {
  const auto alice = add("alice", 1 << 20);
  const auto mallory = add("mallory", 1 << 20);
  auto cache = make(1 << 20);
  const auto image = test_image(12);
  const auto forged = test_image(13);
  const std::uint64_t hash = hash_image(image);
  ASSERT_EQ(cache.insert(hash, image, 0, 7, alice).outcome,
            ModuleCache::Outcome::kHit);

  // Mallory claims the same key for different bytes (a real truncated-hash
  // collision, or a poisoning attempt): refused outright, nothing cached,
  // nothing unloaded — mallory keeps the module private, session-owned.
  const auto res = cache.insert(hash, forged, 0, 666, mallory);
  EXPECT_EQ(res.outcome, ModuleCache::Outcome::kCollision);
  EXPECT_EQ(cache.stats().collisions, 1u);
  EXPECT_TRUE(unloads.empty());
  EXPECT_EQ(tenants.stats(mallory).mem_used_bytes, 0u);
  ASSERT_TRUE(cache.image_bytes(hash).has_value());
  EXPECT_EQ(*cache.image_bytes(hash), image);  // canonical bytes untouched
  EXPECT_EQ(probe(cache, image, 0, alice, "alice").module, 7u);
}

TEST_F(ModuleCacheUnit, SeededEntryRefusesAnUnprovableReupload) {
  const auto alice = add("alice", 1 << 20);
  const auto mallory = add("mallory", 1 << 20);
  auto cache = make(1 << 20);
  const auto image = test_image(14);
  const auto forged = test_image(15);
  const std::uint64_t hash = hash_image(image);
  cache.seed(hash, image.size(), /*device=*/0, /*module=*/99, "alice",
             possession_proof("alice", image));

  // A byte-less seeded entry still has an authority to check uploads
  // against: the imported proof. Bytes that cannot reproduce it are
  // refused, so the import can never be used to launder forged bytes in.
  EXPECT_EQ(cache.insert(hash, forged, 1, 666, mallory).outcome,
            ModuleCache::Outcome::kCollision);
  EXPECT_FALSE(cache.image_bytes(hash).has_value());

  // The genuine bytes reproduce the proof and become resident.
  EXPECT_EQ(cache.insert(hash, image, 1, 42, alice).outcome,
            ModuleCache::Outcome::kHit);
  ASSERT_TRUE(cache.image_bytes(hash).has_value());
  EXPECT_EQ(*cache.image_bytes(hash), image);
}

TEST_F(ModuleCacheUnit, ProofForServesExportsFromBytesOrImports) {
  const auto alice = add("alice", 1 << 20);
  auto cache = make(1 << 20);
  const auto image = test_image(16);
  const std::uint64_t hash = hash_image(image);

  EXPECT_FALSE(cache.proof_for(hash, "alice").has_value());  // unknown
  ASSERT_EQ(cache.insert(hash, image, 0, 7, alice).outcome,
            ModuleCache::Outcome::kHit);
  // Byte-resident entries derive any tenant's proof on demand (migration
  // export uses this to ship the proof alongside the hash).
  const auto derived = cache.proof_for(hash, "alice");
  ASSERT_TRUE(derived.has_value());
  EXPECT_TRUE(digest_equal(*derived, possession_proof("alice", image)));

  // Byte-less seeded entries can only serve the proofs they imported.
  auto warm = make(1 << 20);
  warm.seed(hash, image.size(), 0, 7, "alice",
            possession_proof("alice", image));
  EXPECT_TRUE(warm.proof_for(hash, "alice").has_value());
  EXPECT_FALSE(warm.proof_for(hash, "bob").has_value());
}

// ------------------------ end-to-end negotiation ---------------------------

/// Client<->server stack with the cache on and multi-tenant admission, so
/// quota interactions are exercised through real wire calls.
struct ModcacheE2E : ::testing::Test {
  ModcacheE2E()
      : node(cuda::GpuNode::make_a100()),
        tenants(node->clock(),
                {.device_count =
                     static_cast<std::uint32_t>(node->device_count()),
                 .default_tenant = ""}) {
    core::ServerOptions options;
    options.tenants = &tenants;
    options.module_cache = true;
    server = std::make_unique<CricketServer>(*node, options);
  }

  ~ModcacheE2E() override { disconnect_all(); }

  tenancy::TenantId add(const std::string& name,
                        std::uint64_t mem_quota = 1 << 30) {
    tenancy::TenantSpec spec;
    spec.name = name;
    spec.quota.device_mem_bytes = mem_quota;
    return tenants.register_tenant(spec);
  }

  RemoteCudaApi& connect(const std::string& tenant) {
    auto [client_end, server_end] = rpc::make_pipe_pair();
    threads.push_back(server->serve_async(std::move(server_end)));
    core::ClientConfig config;
    config.tenant = tenant;
    config.module_cache = true;
    apis.push_back(std::make_unique<RemoteCudaApi>(
        std::move(client_end), node->clock(), std::move(config)));
    return *apis.back();
  }

  void disconnect_all() {
    apis.clear();
    for (auto& t : threads)
      if (t.joinable()) t.join();
    threads.clear();
  }

  std::unique_ptr<cuda::GpuNode> node;
  tenancy::SessionManager tenants;
  std::unique_ptr<CricketServer> server;
  std::vector<std::unique_ptr<RemoteCudaApi>> apis;
  std::vector<std::thread> threads;
};

TEST_F(ModcacheE2E, SecondClientLoadSkipsTheUpload) {
  add("alice");
  add("bob");
  const auto image = test_image(0);

  auto& a = connect("alice");
  cuda::ModuleId mod_a = 0;
  ASSERT_EQ(a.module_load(mod_a, image), Error::kSuccess);
  EXPECT_EQ(a.stats().module_cache_hits, 0u);  // cold: probe missed

  auto& b = connect("bob");
  cuda::ModuleId mod_b = 0;
  ASSERT_EQ(b.module_load(mod_b, image), Error::kSuccess);
  EXPECT_EQ(mod_b, mod_a);  // one canonical device module
  EXPECT_EQ(b.stats().module_cache_hits, 1u);
  EXPECT_EQ(b.stats().module_bytes_saved, image.size());

  // The cached handle is a first-class module for both sessions.
  cuda::FuncId fn = 0;
  EXPECT_EQ(b.module_get_function(fn, mod_b, "cache_mark_0"),
            Error::kSuccess);

  const auto stats = server->module_cache()->stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);  // alice's cold probe
}

TEST_F(ModcacheE2E, RepeatLoadsShareOneChargeAndUnloadReleasesIt) {
  const auto alice = add("alice");
  const auto image = test_image(1);
  auto& api = connect("alice");

  cuda::ModuleId m1 = 0, m2 = 0;
  ASSERT_EQ(api.module_load(m1, image), Error::kSuccess);
  ASSERT_EQ(api.module_load(m2, image), Error::kSuccess);
  EXPECT_EQ(m2, m1);
  EXPECT_EQ(api.stats().module_cache_hits, 1u);
  // One unique image, one charge — not per load.
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());

  ASSERT_EQ(api.module_unload(m1), Error::kSuccess);
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());
  ASSERT_EQ(api.module_unload(m2), Error::kSuccess);
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
  // The device module stays warm for the next tenant.
  EXPECT_EQ(server->module_cache()->stats().resident_entries, 1u);
}

TEST_F(ModcacheE2E, TeardownReleasesReferencesAndKeepsEntriesWarm) {
  const auto alice = add("alice");
  add("bob");
  const auto image = test_image(2);
  {
    auto& a = connect("alice");
    cuda::ModuleId mod = 0;
    ASSERT_EQ(a.module_load(mod, image), Error::kSuccess);
    EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());
  }
  disconnect_all();  // session teardown without an explicit unload
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
  EXPECT_EQ(server->module_cache()->stats().resident_entries, 1u);

  // A later tenant hits warm: zero image bytes cross the wire.
  auto& b = connect("bob");
  cuda::ModuleId mod = 0;
  ASSERT_EQ(b.module_load(mod, image), Error::kSuccess);
  EXPECT_EQ(b.stats().module_cache_hits, 1u);
  EXPECT_EQ(b.stats().module_bytes_saved, image.size());
}

TEST_F(ModcacheE2E, QuotaRefusalSurfacesOnBothCachePaths) {
  const auto image = test_image(3);
  add("tiny", image.size() / 2);  // cannot cover the image
  add("rich");

  // Populate the cache through a tenant with room.
  auto& rich = connect("rich");
  cuda::ModuleId mod = 0;
  ASSERT_EQ(rich.module_load(mod, image), Error::kSuccess);

  // The cache-hit path still enforces the probing tenant's quota.
  auto& tiny = connect("tiny");
  cuda::ModuleId denied = 0;
  EXPECT_EQ(tiny.module_load(denied, image), Error::kQuotaExceeded);
  // And so does the cold upload path for a distinct image.
  EXPECT_EQ(tiny.module_load(denied, test_image(4)), Error::kQuotaExceeded);
}

TEST(ModcacheFallback, CachelessServerAnswersMissAndClientFallsBack) {
  auto node = cuda::GpuNode::make_a100();
  CricketServer server(*node);  // no cache, no tenants
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto thread = server.serve_async(std::move(server_end));
  {
    core::ClientConfig config;
    config.module_cache = true;  // client probes; server has no cache
    RemoteCudaApi api(std::move(client_end), node->clock(),
                      std::move(config));
    const auto image = test_image(5);
    cuda::ModuleId mod = 0;
    ASSERT_EQ(api.module_load(mod, image), Error::kSuccess);
    EXPECT_EQ(api.stats().module_cache_hits, 0u);
    EXPECT_EQ(api.stats().module_bytes_saved, 0u);
    cuda::FuncId fn = 0;
    EXPECT_EQ(api.module_get_function(fn, mod, "cache_mark_5"),
              Error::kSuccess);
    EXPECT_EQ(api.module_unload(mod), Error::kSuccess);
  }
  thread.join();
}

TEST(ModcacheUncachedQuota, LegacyUploadPathChargesTenantMemory) {
  // Cache off, tenancy on: the historical per-load path now meters the
  // tenant's memory quota (released on unload and on teardown).
  auto node = cuda::GpuNode::make_a100();
  tenancy::SessionManager tenants(
      node->clock(),
      {.device_count = static_cast<std::uint32_t>(node->device_count()),
       .default_tenant = ""});
  const auto image = test_image(6);
  tenancy::TenantSpec spec;
  spec.name = "alice";
  spec.quota.device_mem_bytes = image.size() + image.size() / 2;
  const auto alice = tenants.register_tenant(spec);
  core::ServerOptions options;
  options.tenants = &tenants;
  CricketServer server(*node, options);

  std::vector<std::thread> threads;
  auto connect = [&]() {
    auto [client_end, server_end] = rpc::make_pipe_pair();
    threads.push_back(server.serve_async(std::move(server_end)));
    core::ClientConfig config;
    config.tenant = "alice";
    return std::make_unique<RemoteCudaApi>(std::move(client_end),
                                           node->clock(), std::move(config));
  };
  {
    auto api = connect();
    cuda::ModuleId m1 = 0, m2 = 0;
    ASSERT_EQ(api->module_load(m1, image), Error::kSuccess);
    EXPECT_EQ(tenants.stats(alice).mem_used_bytes, image.size());
    // Per load, not per unique image: the second copy busts the quota.
    EXPECT_EQ(api->module_load(m2, image), Error::kQuotaExceeded);
    ASSERT_EQ(api->module_unload(m1), Error::kSuccess);
    EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
    // Leak one load; session teardown must release the charge.
    ASSERT_EQ(api->module_load(m2, image), Error::kSuccess);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
  EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
}

TEST(ModcacheAsync, PipelinedClientNegotiatesTheSameProtocol) {
  auto node = cuda::GpuNode::make_a100();
  core::ServerOptions options;
  options.module_cache = true;
  CricketServer server(*node, options);
  const auto environment = env::with_module_cache(env::with_pipelining(
      env::make_environment(env::EnvKind::kRustyHermit), 32, true));
  const auto image = test_image(7);

  auto load_once = [&](cuda::ModuleId& mod) {
    auto conn = env::connect(environment, node->clock());
    auto thread = server.serve_async(std::move(conn.server));
    {
      core::RemoteCudaApi api(
          std::move(conn.guest), node->clock(),
          core::ClientConfig{.flavor = environment.flavor,
                             .pipeline = environment.pipeline,
                             .module_cache = environment.module_cache});
      ASSERT_EQ(api.module_load(mod, image), Error::kSuccess);
      cuda::FuncId fn = 0;
      EXPECT_EQ(api.module_get_function(fn, mod, "cache_mark_7"),
                Error::kSuccess);
      EXPECT_EQ(api.drain(), Error::kSuccess);
    }
    thread.join();
  };

  cuda::ModuleId first = 0, second = 0;
  load_once(first);
  const auto cold = server.module_cache()->stats();
  EXPECT_EQ(cold.inserts, 1u);
  load_once(second);
  EXPECT_EQ(second, first);  // answered from the cache, not re-uploaded
  const auto warm = server.module_cache()->stats();
  EXPECT_EQ(warm.inserts, 1u);
  EXPECT_EQ(warm.hits, cold.hits + 1);
}

TEST(ModcacheFaults, NegotiationSurvivesDropFaults) {
  auto node = cuda::GpuNode::make_a100();
  core::ServerOptions options;
  options.module_cache = true;
  options.at_most_once = true;  // retries must never double-reference
  CricketServer server(*node, options);
  const auto environment = env::with_module_cache(env::with_faults(
      env::make_environment(env::EnvKind::kNativeRust), "drop=0.05,seed=42"));
  const auto image = test_image(8);

  std::vector<std::thread> threads;
  auto connect = [&]() {
    auto conn = env::connect(environment, node->clock());
    threads.push_back(server.serve_async(std::move(conn.server)));
    core::ClientConfig config;
    config.flavor = environment.flavor;
    config.profile = environment.profile;
    config.module_cache = true;
    config.retry.enabled = true;
    config.retry.max_attempts = 8;
    config.retry.attempt_timeout = 250ms;
    config.retry.deadline = 30s;
    return std::make_unique<RemoteCudaApi>(std::move(conn.guest),
                                           node->clock(), std::move(config));
  };
  {
    auto a = connect();
    auto b = connect();
    cuda::ModuleId mod_a = 0, mod_b = 0;
    // Both the cold (probe miss -> upload) and warm (probe hit) paths must
    // come through the lossy link; any dropped leg is retried.
    ASSERT_EQ(a->module_load(mod_a, image), Error::kSuccess);
    ASSERT_EQ(b->module_load(mod_b, image), Error::kSuccess);
    EXPECT_EQ(mod_b, mod_a);
    cuda::FuncId fn = 0;
    EXPECT_EQ(b->module_get_function(fn, mod_b, "cache_mark_8"),
              Error::kSuccess);
    EXPECT_EQ(a->module_unload(mod_a), Error::kSuccess);
    EXPECT_EQ(b->module_unload(mod_b), Error::kSuccess);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
  EXPECT_EQ(server.module_cache()->stats().inserts, 1u);
}

// ------------------------------ migration ----------------------------------

TEST(ModcacheMigration, CachedModulesSurviveTheImageCodec) {
  migrate::MigrationImage img;
  img.tenant.spec.name = "alice";
  core::SessionExport s;
  s.session_id = 4;
  s.client_id = 0xC0FFEE;
  const Digest proof = possession_proof("alice", test_image(0));
  s.cached_modules = {
      {/*id=*/7, /*hash=*/0xDEADBEEFCAFEull, /*bytes=*/4096, /*owner=*/true,
       proof},
      {/*id=*/9, /*hash=*/0x1234ull, /*bytes=*/128, /*owner=*/false,
       Digest{}}};
  img.sessions.push_back(std::move(s));

  const auto out = migrate::decode_image(migrate::encode_image(img));
  ASSERT_EQ(out.sessions.size(), 1u);
  ASSERT_EQ(out.sessions[0].cached_modules.size(), 2u);
  EXPECT_EQ(out.sessions[0].cached_modules[0].id, 7u);
  EXPECT_EQ(out.sessions[0].cached_modules[0].hash, 0xDEADBEEFCAFEull);
  EXPECT_EQ(out.sessions[0].cached_modules[0].bytes, 4096u);
  EXPECT_TRUE(out.sessions[0].cached_modules[0].owner);
  EXPECT_TRUE(digest_equal(out.sessions[0].cached_modules[0].proof, proof));
  EXPECT_EQ(out.sessions[0].cached_modules[1].id, 9u);
  EXPECT_EQ(out.sessions[0].cached_modules[1].hash, 0x1234ull);
  EXPECT_EQ(out.sessions[0].cached_modules[1].bytes, 128u);
  EXPECT_FALSE(out.sessions[0].cached_modules[1].owner);
  EXPECT_TRUE(
      digest_equal(out.sessions[0].cached_modules[1].proof, Digest{}));
}

xdr::Untrusted<std::uint64_t> U(std::uint64_t v) {
  return xdr::Untrusted<std::uint64_t>(v);
}

TEST(ModcacheMigration, WarmTargetSeedsCacheAndAdoptionRereferences) {
  constexpr std::uint32_t kStamp = 77;  // the migrating client's identity
  const auto image = test_image(9);
  const std::uint64_t hash = hash_image(image);

  // ---- source fleet: tenant alice loads a module through the cache ----
  auto src_node = cuda::GpuNode::make_paper_testbed();
  tenancy::SessionManager src_tenants(
      src_node->clock(),
      {.device_count = static_cast<std::uint32_t>(src_node->device_count()),
       .default_tenant = ""});
  tenancy::TenantSpec spec;
  spec.name = "alice";
  const auto src_alice = src_tenants.register_tenant(spec);
  core::ServerOptions so;
  so.tenants = &src_tenants;
  so.module_cache = true;
  CricketServer source(*src_node, so);

  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto src_thread = source.serve_async(std::move(server_end));
  core::ClientConfig config;
  config.tenant = "alice";
  config.auth_stamp = kStamp;
  config.module_cache = true;
  auto api = std::make_unique<RemoteCudaApi>(std::move(client_end),
                                             src_node->clock(), config);
  cuda::ModuleId mod = 0;
  ASSERT_EQ(api->module_load(mod, image), Error::kSuccess);

  // ---- snapshot: the cached module travels as (id, hash, size) ----
  migrate::MigrationImage img;
  const auto exported = src_tenants.export_tenant(src_alice);
  ASSERT_TRUE(exported.has_value());
  img.tenant = *exported;
  img.sessions = source.export_tenant_sessions(src_alice);
  ASSERT_EQ(img.sessions.size(), 1u);
  ASSERT_EQ(img.sessions[0].cached_modules.size(), 1u);
  EXPECT_EQ(img.sessions[0].cached_modules[0].id, mod);
  EXPECT_EQ(img.sessions[0].cached_modules[0].hash, hash);
  EXPECT_EQ(img.sessions[0].cached_modules[0].bytes, image.size());
  // The module is cache-owned, not session-owned, so the per-session handle
  // list is empty — but the device record still rides in the state snapshot
  // exactly once, so the target can restore it without a re-upload.
  EXPECT_TRUE(img.sessions[0].modules.empty());
  EXPECT_EQ(img.sessions[0].state.modules.size(), 1u);

  // ---- target fleet: import commits, the cache is seeded ----
  auto dst_node = cuda::GpuNode::make_paper_testbed();
  tenancy::SessionManager dst_tenants(
      dst_node->clock(),
      {.device_count = static_cast<std::uint32_t>(dst_node->device_count()),
       .default_tenant = ""});
  core::ServerOptions to;
  to.tenants = &dst_tenants;
  to.module_cache = true;
  CricketServer target(*dst_node, to);
  migrate::MigrationTarget mt(target);
  const auto blob = migrate::encode_image(img);
  const auto opened = mt.begin("alice", U(blob.size()));
  ASSERT_EQ(opened.err, migrate::kMigOk);
  ASSERT_EQ(mt.chunk(U(opened.ticket), U(0), blob), migrate::kMigOk);
  ASSERT_EQ(mt.commit(U(opened.ticket), migrate::fnv64(blob)),
            migrate::kMigOk);
  EXPECT_EQ(target.module_cache()->stats().resident_entries, 1u);

  // ---- the client reconnects to the target: adoption re-references ----
  auto [c2, s2] = rpc::make_pipe_pair();
  auto dst_thread = target.serve_async(std::move(s2));
  {
    RemoteCudaApi reconnected(std::move(c2), dst_node->clock(), config);
    // Reloading the same image probes by hash and hits the seeded entry:
    // the multi-KB image never crosses the wire to the warm target.
    cuda::ModuleId warm = 0;
    ASSERT_EQ(reconnected.module_load(warm, image), Error::kSuccess);
    EXPECT_EQ(warm, mod);  // the restored handle survived the move
    EXPECT_EQ(reconnected.stats().module_cache_hits, 1u);
    EXPECT_EQ(reconnected.stats().module_bytes_saved, image.size());
    cuda::FuncId fn = 0;
    EXPECT_EQ(reconnected.module_get_function(fn, warm, "cache_mark_9"),
              Error::kSuccess);
    // Adopted + probed references unwind through the cache path.
    EXPECT_EQ(reconnected.module_unload(warm), Error::kSuccess);
  }
  dst_thread.join();
  api.reset();
  src_thread.join();
}

TEST(ModcacheMigration, CachelessTargetRefusesCacheSharedModules) {
  // A target without a module cache has no safe home for cache-shared
  // modules: adopting them as plain per-session handles would let the first
  // session teardown unload a module its siblings still use. The import is
  // refused whole, before anything touches the device.
  migrate::MigrationImage img;
  img.tenant.spec.name = "alice";
  core::SessionExport s;
  s.session_id = 1;
  s.client_id = 0xC0FFEE;
  s.cached_modules = {{/*id=*/7, /*hash=*/0xFEEDull, /*bytes=*/128,
                       /*owner=*/true, Digest{}}};
  img.sessions.push_back(std::move(s));

  auto node = cuda::GpuNode::make_paper_testbed();
  tenancy::SessionManager tenants(
      node->clock(),
      {.device_count = static_cast<std::uint32_t>(node->device_count()),
       .default_tenant = ""});
  core::ServerOptions options;
  options.tenants = &tenants;  // tenancy on, module cache OFF
  CricketServer target(*node, options);
  ASSERT_EQ(target.module_cache(), nullptr);

  migrate::MigrationTarget mt(target);
  const auto blob = migrate::encode_image(img);
  const auto opened = mt.begin("alice", U(blob.size()));
  ASSERT_EQ(opened.err, migrate::kMigOk);
  ASSERT_EQ(mt.chunk(U(opened.ticket), U(0), blob), migrate::kMigOk);
  EXPECT_EQ(mt.commit(U(opened.ticket), migrate::fnv64(blob)),
            migrate::kMigNoModCache);
  EXPECT_EQ(mt.committed_count(), 0u);
}

}  // namespace
}  // namespace cricket::modcache
