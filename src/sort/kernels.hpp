// Host radix kernels: the real data movement the simulator executes.
//
// Every simulated sort performs *actual* histogram and permutation passes
// on the host; at the sizes the figure sweeps use, these loops — not the
// engine — bound host wall-clock time. This layer separates *how the host
// computes* from *what the simulator charges*:
//
//   * `kReference` — the seed loops, kept verbatim: one histogram sweep
//     per pass, a direct scattered-store permute.
//   * `kOptimized` — (a) one-sweep multi-pass histogramming: a single
//     read pass over the keys produces the histograms of every radix
//     pass at once (digit histograms are permutation-invariant, so the
//     initial array determines all of them); (b) a software
//     write-combining permute: per-bucket cache-line buffers flushed
//     contiguously — the paper's CC-SAS-NEW insight (buffer scattered
//     remote writes locally, move them contiguously) applied to the
//     host's own cache hierarchy; (c) a two-level staged scatter for
//     bucket counts whose staging would overflow the cache (radix 16):
//     keys are first grouped by super-digit into a chunk buffer, then
//     each super-bucket is scattered to its final position — both levels
//     keep the live write-stream count small; (d) dead-pass skipping: a
//     pass whose digits are all equal is an identity permutation and
//     moves no data.
//
// The hard contract (see DESIGN.md §9): backends are *charge-invariant*.
// A kernel may change instruction count, sweep structure and staging
// buffers; it must not change the sorted output, the per-pass histogram,
// the measured run structure (`runs`, `active`) the cost model consumes,
// or any charged virtual time. The equivalence test tier enforces this
// bit-for-bit, for every backend.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/types.hpp"
#include "keys/record.hpp"

namespace dsm::sort {

enum class KernelBackend {
  kReference,  // seed loops, kept verbatim
  kOptimized,  // one-sweep histograms + staged permutes + dead-pass skip
};

/// Canonical registry table (see common/cli.hpp).
inline constexpr EnumEntry<KernelBackend> kKernelBackendNames[] = {
    {KernelBackend::kReference, "reference"},
    {KernelBackend::kOptimized, "optimized"},
};

const char* kernel_backend_name(KernelBackend b);
KernelBackend kernel_backend_from_name(const std::string& name);
/// Typed parse: kInvalidArgument listing the accepted names on failure.
Result<KernelBackend> try_kernel_backend_from_name(const std::string& name);

/// Process-wide default backend: DSMSORT_KERNELS=reference|optimized when
/// set (parsed once), else kOptimized. CLI overrides (--kernels) install
/// theirs via set_default_kernel_backend.
KernelBackend default_kernel_backend();
void set_default_kernel_backend(KernelBackend b);

/// Keys per software write-combining line: 64 bytes of Key — one host
/// cache line staged per bucket, flushed contiguously when full.
inline constexpr std::size_t kWcLineKeys = 64 / sizeof(Key);

/// Default bucket count at and above which the optimized permute stages
/// writes in write-combining buffers regardless of input size. Below it
/// the destination write streams fit the L1 comfortably and direct
/// scattered stores win (the WC staging would only add a copy) — unless
/// the moved footprint itself is memory-bound, see kWcMinFootprintBytes.
/// Runtime value: kernel_wc_min_buckets() / DSMSORT_KERNEL_WC_BUCKETS.
inline constexpr std::size_t kWcDefaultMinBuckets = 512;

/// Default staging-area ceiling for the one-level WC permute. Past it the
/// per-bucket line buffers no longer fit the L2 and staging evicts the
/// very lines it is trying to batch (measured: 2^16 buckets = 4 MiB
/// staging loses to the direct scatter), so the optimized permute
/// switches to the two-level staged scatter instead. Runtime value:
/// kernel_staging_bytes() / DSMSORT_KERNEL_STAGING_KB.
inline constexpr std::size_t kWcDefaultStagingBytes = std::size_t{1} << 20;

/// Moved-bytes threshold past which the permute is DRAM-bound rather than
/// cache-resident. At or above it the optimized permute (a) engages WC
/// staging even below kernel_wc_min_buckets(), and (b) flushes full
/// aligned lines with non-temporal stores where the ISA offers them — the
/// destination is write-only until the next pass, so bypassing the
/// hierarchy saves the read-for-ownership of every destination line.
inline constexpr std::size_t kWcMinFootprintBytes = std::size_t{4} << 20;

/// The two-level scatter only pays once the average bucket holds this
/// many keys; below it the destination write streams are sparse enough
/// that the direct scatter stays cache-resident.
inline constexpr std::size_t kTwoLevelMinKeysPerBucket = 4;

/// Widest super-digit the two-level scatter's first level uses: 2^10
/// coarse buckets keep level-1 staging at 64 KiB regardless of radix.
inline constexpr int kTwoLevelMaxCoarseBits = 10;

/// Below this many bytes an exchange_copy is always a plain memcpy: the
/// non-temporal path's fence and alignment peeling need a run of full
/// cache lines to pay for themselves.
inline constexpr std::size_t kStreamCopyMinBytes = std::size_t{1} << 12;

/// Tunable one-level WC staging ceiling in bytes. Seeded from
/// DSMSORT_KERNEL_STAGING_KB (strict parse: a bare non-negative integer
/// in KiB; 0 disables one-level staging so large radixes go straight to
/// the two-level scatter), else kWcDefaultStagingBytes.
std::size_t kernel_staging_bytes();
void set_kernel_staging_bytes(std::size_t bytes);

/// Tunable WC amortization gate (minimum bucket count). Seeded from
/// DSMSORT_KERNEL_WC_BUCKETS (strict parse), else kWcDefaultMinBuckets.
std::size_t kernel_wc_min_buckets();
void set_kernel_wc_min_buckets(std::size_t buckets);

/// Strict full-string parse behind the DSMSORT_KERNEL_* variables,
/// exported so tests can exercise the error paths without setenv: accepts
/// exactly an optional sign plus base-10 digits within
/// [min_value, max_value]; anything else (leading whitespace, trailing
/// garbage, overflow, out of range) throws Error quoting `text` and
/// describing the accepted values as `what`.
long long parse_kernel_env_number(const char* name, const char* text,
                                  long long min_value, long long max_value,
                                  const char* what);

/// Widest permute-flush ISA this build + host combination dispatches to:
/// "avx2", "sse2", or "scalar". AVX2 variants exist only in the
/// DSMSORT_NATIVE kernel TU and are gated on a runtime CPU check.
const char* kernel_isa_name();

/// Reusable per-caller scratch for the radix kernels. Hoists every
/// allocation the seed kernels made per call (the per-pass `hist`
/// vector) plus the optimized backend's staging: prepare() is cheap when
/// capacities already fit, so a long-lived caller (the service executor,
/// a sweep worker) allocates once and sorts many times.
struct RadixWorkspace {
  /// Size `hist` for 2^radix_bits buckets (contents unspecified).
  void prepare(int radix_bits);
  /// Additionally size the one-sweep table (`pass_hist`, passes rows of
  /// 2^radix_bits buckets) and the WC staging buffers.
  void prepare(int radix_bits, int passes);

  std::vector<std::uint64_t> hist;       // 2^radix_bits running cursors
  std::vector<std::uint64_t> pass_hist;  // [pass][bucket], one-sweep rows
  std::vector<Key> wc_keys;              // staging lines x kWcLineKeys
  std::vector<std::uint32_t> wc_fill;    // staged keys per bucket (all 0
                                         // between permute calls)
  std::vector<std::uint32_t> wc_need;    // keys until next flush (aligns
                                         // streaming flushes to 64B)
  std::vector<Key> chunk;                // two-level: super-digit groups
  std::vector<std::uint64_t> coarse;     // two-level: super-digit cursors
  std::vector<std::uint64_t> pay_cursor;    // paired sorts: cursor snapshot
                                            // for the payload mirror
  std::vector<Key> lis_tails;               // merge split: patience tails
  std::vector<std::uint32_t> lis_tail_at;   // merge split: input index of
                                            // each tail
  std::vector<std::uint32_t> lis_prev;      // merge split: chain links
};

/// The calling host thread's lazily-created workspace. The legacy
/// (workspace-free) sort entry points borrow this; every rank is its own
/// thread, so no two ranks ever share one.
RadixWorkspace& tls_radix_workspace();

/// Number of nonzero buckets.
std::uint64_t count_active(std::span<const std::uint64_t> hist);

/// One counting pass over `keys` for digit `pass`: fills `hist` (size
/// 2^radix_bits) and returns the number of nonzero buckets. The scalar
/// loop is identical under both backends (a single-pass count is already
/// memory bound); the optimized backend may use the vectorized digit
/// extraction where the build carries it.
std::uint64_t histogram_kernel(KernelBackend be, std::span<const Key> keys,
                               int pass, int radix_bits,
                               std::span<std::uint64_t> hist);

/// Histograms of every pass at once: fills `pass_hist` (row-major,
/// `passes` rows of 2^radix_bits). kReference performs `passes`
/// independent key sweeps (the seed structure); kOptimized reads the
/// keys once and updates all rows per key.
void multi_histogram_kernel(KernelBackend be, std::span<const Key> keys,
                            int passes, int radix_bits,
                            std::span<std::uint64_t> pass_hist);

/// Stable permutation of `in` into `out` by digit `pass`, using `cursor`
/// (size 2^radix_bits) as running write cursors (consumed: advanced past
/// every written key). Returns the measured digit-run count — the charge
/// input the cost model consumes — which is a pure function of the input
/// order and therefore backend-invariant. `active` is the nonzero bucket
/// count of this span's digit histogram (enables the single-bucket
/// contiguous-copy fast path; pass count_active's result).
std::uint64_t permute_kernel(KernelBackend be, std::span<const Key> in,
                             std::span<Key> out, int pass, int radix_bits,
                             std::span<std::uint64_t> cursor,
                             std::uint64_t active, RadixWorkspace& ws);

/// Flush one staged write-combining group (`n_keys` <= kWcLineKeys) to
/// `dst`. A full-line flush to a 64-byte-aligned destination uses
/// non-temporal stores where the build carries them; anything else is an
/// ordinary contiguous copy. For callers that run their own staging state
/// machine around a charge-measurement loop (the CC-SAS scatter); pair
/// with wc_store_fence() after the final drain.
void wc_flush(Key* dst, const Key* src, std::size_t n_keys);

/// Order preceding non-temporal flushes before later loads or an
/// inter-thread hand-off of the flushed destination. No-op on builds
/// without streaming stores.
void wc_store_fence();

/// Contiguous key copy for between-pass exchanges (worker piece moves,
/// sample sort's redistribution). kReference is std::memcpy; kOptimized
/// streams full destination lines with non-temporal stores when the
/// surrounding exchange (`footprint_bytes`, the total bytes the phase
/// moves) is DRAM-bound — the destination is write-only until the next
/// phase, so bypassing the cache saves its read-for-ownership traffic.
/// Byte-identical result under both backends; safe for any alignment;
/// `dst` and `src` must not overlap.
void exchange_copy(KernelBackend be, Key* dst, const Key* src,
                   std::size_t n, std::size_t footprint_bytes);

/// Host-side payload mirror of a digit scatter: replays the exact stable
/// permutation a key permute applied, moving `pay_in` into `pay_out`
/// through `cursor` (consumed, like permute_kernel's). The payload lane is
/// a host mirror outside the simulated machine — it is never charged and
/// has no backend variants; callers snapshot the cursor state *before*
/// the key permute and hand the copy here.
void payload_mirror_scatter(std::span<const Key> keys,
                            std::span<const keys::Payload> pay_in,
                            std::span<keys::Payload> pay_out, int pass,
                            int radix_bits, std::span<std::uint64_t> cursor);

}  // namespace dsm::sort
