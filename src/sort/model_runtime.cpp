#include "sort/model_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <tuple>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "msg/communicator.hpp"
#include "sas/prefix_tree.hpp"
#include "shmem/shmem.hpp"
#include "sim/epoch.hpp"
#include "sort/seq_radix.hpp"
#include "sort/verify.hpp"

namespace dsm::sort {
namespace {

constexpr std::uint64_t kLine = 128;  // Origin L2 line (bytes)

std::size_t buckets_of(const SortSpec& spec) {
  return std::size_t{1} << spec.radix_bits;
}

/// Storage arrays a sort needs: radix toggles between two and stages the
/// buffered permutation in a third (every model but plain CC-SAS, whose
/// permutation writes straight into the shared output); the sample
/// skeleton sorts its input in place.
int arrays_for(const SortSpec& spec) {
  if (spec.algo != Algo::kRadix) return 1;
  return spec.model == Model::kCcSas ? 2 : 3;
}

/// From allgathered histograms (p rows x B), compute this rank's
/// rank_prefix[b] = sum of lower ranks' bucket-b counts, and the global
/// exclusive bucket starts. Charged as the redundant local computation the
/// MPI/SHMEM versions perform.
void prefixes_from_allhists(sim::ProcContext& ctx,
                            std::span<const std::uint64_t> all_hist,
                            std::size_t buckets,
                            std::span<std::uint64_t> rank_prefix,
                            std::span<std::uint64_t> global_start) {
  const int p = ctx.nprocs();
  const int r = ctx.rank();
  DSM_REQUIRE(all_hist.size() == static_cast<std::size_t>(p) * buckets,
              "allgathered histogram size mismatch");
  std::fill(rank_prefix.begin(), rank_prefix.end(), 0);
  std::fill(global_start.begin(), global_start.end(), 0);
  // global_start temporarily holds global counts.
  for (int j = 0; j < p; ++j) {
    const std::uint64_t* row = all_hist.data() +
                               static_cast<std::size_t>(j) * buckets;
    for (std::size_t b = 0; b < buckets; ++b) {
      if (j < r) rank_prefix[b] += row[b];
      global_start[b] += row[b];
    }
  }
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint64_t c = global_start[b];
    global_start[b] = acc;
    acc += c;
  }
  const auto cells = static_cast<double>(static_cast<std::size_t>(p) * buckets);
  ctx.busy_cycles(cells * ctx.params().cpu.scan_cycles);
  ctx.stream(static_cast<std::uint64_t>(p) * buckets * sizeof(std::uint64_t),
             static_cast<std::uint64_t>(p) * buckets * sizeof(std::uint64_t));
}

/// Split the contiguous destination range [gpos, gpos+count) by owner
/// partition; fn(dst, gpos_piece, offset_within_chunk, len).
template <typename Fn>
void for_each_piece(const sas::HomeMap& homes, std::uint64_t gpos,
                    std::uint64_t count, Fn&& fn) {
  std::uint64_t off = 0;
  while (count > 0) {
    const int dst = homes.owner_of(gpos);
    const std::uint64_t len = std::min(count, homes.end_of(dst) - gpos);
    fn(dst, gpos, off, len);
    gpos += len;
    off += len;
    count -= len;
  }
}

/// Comparison-sort a small array, charging n log n compares.
void charged_small_sort(sim::ProcContext& ctx, std::span<Key> keys) {
  std::sort(keys.begin(), keys.end());
  const auto n = static_cast<double>(keys.size());
  if (keys.size() > 1) {
    ctx.busy_cycles(n * std::log2(n) * ctx.params().cpu.compare_cycles);
  }
  ctx.stream(keys.size() * sizeof(Key), keys.size() * sizeof(Key));
}

/// Sort the gathered sample set (laid out by contributing rank, `s` per
/// rank) as (value, src) tuples and pick every s-th as a splitter.
void pick_splitters(std::span<const Key> samples_by_rank, int sample_count,
                    std::span<Splitter> splitters) {
  const auto p = splitters.size() + 1;
  const auto s = static_cast<std::size_t>(sample_count);
  DSM_REQUIRE(samples_by_rank.size() == p * s, "sample set must hold p blocks");
  std::vector<Splitter> tagged(samples_by_rank.size());
  for (std::size_t i = 0; i < tagged.size(); ++i) {
    tagged[i] = Splitter{samples_by_rank[i], static_cast<int>(i / s)};
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const Splitter& a, const Splitter& b) {
              return std::tie(a.value, a.src) < std::tie(b.value, b.src);
            });
  for (std::size_t k = 1; k < p; ++k) {
    splitters[k - 1] = tagged[k * s];
  }
}

/// Row `src` of the p x (p + 1) boundary matrix.
const std::uint64_t* bounds_row(std::span<const std::uint64_t> all_bounds,
                                int p, int src) {
  return all_bounds.data() +
         static_cast<std::size_t>(src) * static_cast<std::size_t>(p + 1);
}

/// Exclusive prefix of `counts` into `starts` (same size), charged.
void exclusive_prefix(sim::ProcContext& ctx,
                      std::span<const std::uint64_t> counts,
                      std::span<std::uint64_t> starts) {
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    starts[b] = acc;
    acc += counts[b];
  }
  ctx.busy_cycles(static_cast<double>(counts.size()) *
                  ctx.params().cpu.scan_cycles);
}

// ---------------------------------------------------------------- CC-SAS

class CcSasRuntime final : public ModelRuntime {
 public:
  explicit CcSasRuntime(const SortSpec& spec)
      : ModelRuntime(spec, arrays_for(spec)),
        buffered_(spec.model == Model::kCcSasNew) {
    use_flat_storage();
    const auto p = static_cast<std::size_t>(spec.nprocs);
    if (spec.algo == Algo::kRadix) {
      scan_.emplace(spec.nprocs, buckets_of(spec));
      scratch_.resize(p);
    } else {
      const auto s = static_cast<std::size_t>(spec.ablations.sample_count);
      samples_.resize(s * p);
      group_sorted_.resize(s * p);
      splitters_.resize(p - 1);
      boundaries_.resize(p * (p + 1));
    }
  }

  Key max_reduce(sim::ProcContext& ctx, Key local) override {
    return static_cast<Key>(sas::ccsas_max_reduce(ctx, local));
  }
  void barrier(sim::ProcContext& ctx) override { sas::ccsas_barrier(ctx); }

  void histogram_collective(sim::ProcContext& ctx, RadixRank& s) override {
    std::vector<std::uint64_t>& global_cnt =
        scratch_[static_cast<std::size_t>(ctx.rank())].global_cnt;
    global_cnt.resize(s.hist.size());
    scan_->scan(ctx, s.hist, s.rank_prefix, global_cnt);
    exclusive_prefix(ctx, global_cnt, s.global_start);
  }

  void radix_permute(sim::ProcContext& ctx, RadixRank& s) override {
    if (!buffered_) {
      scatter(ctx, s);
    } else {
      // CC-SAS-NEW (§4.2.1): buffer locally, then copy contiguous chunks.
      const double permute_start_ns = ctx.clock().now_ns();
      stage_locally(ctx, s);
      copy_out(ctx, s, permute_start_ns);
    }
    ctx.phase("barrier");
    sas::ccsas_barrier(ctx);
  }

  void share_samples(sim::ProcContext& ctx, SampleRank& s) override {
    std::copy(s.samples.begin(), s.samples.end(),
              samples_.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(ctx.rank()) *
                                     s.samples.size()));
    sas::ccsas_barrier(ctx);
  }

  void splitter_collective(sim::ProcContext& ctx, SampleRank& s) override {
    // Group collectors gather and sort their group's samples, then merge
    // across groups.
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const auto rr = static_cast<std::size_t>(r);
    const std::size_t ns = s.samples.size();
    const int gsize = std::min(spec_.ablations.sample_group_size, p);
    const bool collector = r % gsize == 0;
    if (collector) {
      const int members = std::min(gsize, p - r);
      std::span<Key> slot(group_sorted_.data() + rr * ns,
                          static_cast<std::size_t>(members) * ns);
      std::memcpy(slot.data(), samples_.data() + rr * ns,
                  slot.size() * sizeof(Key));
      for (int m = 1; m < members; ++m) {
        // Remote fine-grained reads of each member's sample slot.
        ctx.rmem_ns(ctx.cost().block_transfer_ns(r, r + m, ns * sizeof(Key)));
      }
      charged_small_sort(ctx, slot);
    }
    sas::ccsas_barrier(ctx);

    if (collector) {
      // Merge every group's sorted slot (reading remote collectors'
      // slots); the merge cost is charged here, while the splitter values
      // themselves are computed from the rank-ordered sample array so ties
      // keep their contributing rank (duplicate handling).
      for (int g = 0; g * gsize < p; ++g) {
        if (g * gsize != r && g * gsize < p) {
          const int members = std::min(gsize, p - g * gsize);
          ctx.rmem_ns(ctx.cost().block_transfer_ns(
              r, g * gsize,
              static_cast<std::uint64_t>(members) * ns * sizeof(Key)));
        }
      }
      ctx.busy_cycles(static_cast<double>(ns * static_cast<std::size_t>(p)) *
                      std::max(1.0, std::log2(static_cast<double>(
                                        ceil_div(static_cast<std::uint64_t>(p),
                                                 static_cast<std::uint64_t>(gsize))))) *
                      ctx.params().cpu.compare_cycles);
      if (r == 0) {
        pick_splitters(samples_, spec_.ablations.sample_count, splitters_);
        ctx.stream(splitters_.size() * sizeof(Key),
                   splitters_.size() * sizeof(Key));
      }
    }
    sas::ccsas_barrier(ctx);
    if (r != 0 && p > 1) {
      ctx.rmem_ns(ctx.cost().block_transfer_ns(
          r, 0, splitters_.size() * (sizeof(Key) + sizeof(int))));
    }
    std::copy(splitters_.begin(), splitters_.end(), s.splitters.begin());
  }

  std::span<const std::uint64_t> bounds_collective(sim::ProcContext& ctx,
                                                   SampleRank& s) override {
    std::copy(s.bounds.begin(), s.bounds.end(),
              boundaries_.begin() + static_cast<std::ptrdiff_t>(
                                        static_cast<std::size_t>(ctx.rank()) *
                                        s.bounds.size()));
    sas::ccsas_barrier(ctx);
    return boundaries_;
  }

  void sample_exchange(sim::ProcContext& ctx, SampleRank& /*s*/,
                       std::span<const std::uint64_t> all_bounds) override {
    // Pull my incoming ranges from every process (remote reads).
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const auto rr = static_cast<std::size_t>(r);
    for (int j = 0; j < p; ++j) {
      if (j != r) ctx.rmem_ns(ctx.cost().line_rtt_ns(r, j));  // read bj row
    }
    std::vector<Key>& out = result[rr];
    const std::uint64_t total = out.size();
    std::vector<sim::Transfer> reads;
    std::uint64_t pos = 0;
    for (int j = 0; j < p; ++j) {
      const std::uint64_t* bj = bounds_row(all_bounds, p, j);
      const std::uint64_t cnt = bj[r + 1] - bj[r];
      if (cnt == 0) continue;
      exchange_copy(spec_.kernel_backend, out.data() + pos,
                    part(0, j).data() + bj[r], cnt, total * sizeof(Key));
      if (j == r) {
        ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
      } else {
        reads.push_back(sim::Transfer{j, r, cnt * sizeof(Key)});
      }
      pos += cnt;
    }
    // Hardware remote loads: no software overhead per chunk beyond the
    // first-line latency the wire model already includes.
    ctx.team().get_epoch(ctx, reads, sim::OneSidedConfig{0.0});
  }

 private:
  /// The sorted keys stay in whichever shared array the last pass wrote,
  /// one run over the whole array.
  Runs radix_output() const override {
    const auto a = static_cast<std::size_t>(passes_used.load() % 2);
    Runs out;
    out.keys.emplace_back(flat(static_cast<int>(a)), spec_.n);
    if (paired()) out.pays.emplace_back(pay_[a]);
    return out;
  }

  /// Original SPLASH-2 style: write each key straight to its global
  /// position — temporally scattered remote writes.
  void scatter(sim::ProcContext& ctx, RadixRank& s) {
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const int bits = spec_.radix_bits;
    const std::size_t buckets = s.hist.size();
    const std::span<const Key> my_keys = part(s.in(), r);
    const std::uint64_t part_bytes = homes_.count_of(r) * sizeof(Key);
    RankScratch& w = scratch_[static_cast<std::size_t>(r)];
    w.owner.resize(buckets);
    w.owner_end.resize(buckets);
    w.bytes_to.resize(static_cast<std::size_t>(p));
    w.runs_to.resize(static_cast<std::size_t>(p));

    for (std::size_t b = 0; b < buckets; ++b) {
      s.cursor[b] = s.global_start[b] + s.rank_prefix[b];
    }
    if (paired()) std::copy(s.cursor.begin(), s.cursor.end(), s.mirror.begin());
    ctx.busy_cycles(static_cast<double>(buckets) *
                    ctx.params().cpu.scan_cycles);
    // Each bucket's write cursor only moves forward, so its home owner
    // advances monotonically too: track it with a boundary compare
    // instead of the integer divide inside owner_of (one divide per key
    // dominates this loop otherwise). Starting every bucket at owner 0
    // costs at most p boundary steps per bucket over the whole pass.
    for (std::size_t b = 0; b < buckets; ++b) {
      w.owner[b] = 0;
      w.owner_end[b] = homes_.end_of(0);
    }

    const double permute_start_ns = ctx.clock().now_ns();
    Key* const out_data = flat(s.out());
    // Worker-exchange write-combining: under the optimized backend the
    // scattered remote stores are staged per bucket and flushed as
    // contiguous lines (non-temporal on aligned full lines), exactly
    // like the local WC permute. The measurement loop below — cursor
    // positions, home-owner tracking, per-home byte/run tallies — is
    // untouched, so every charge is identical; only the physical store
    // order changes, and flushes land each key at its cursor position.
    const bool stage_writes =
        spec_.kernel_backend == KernelBackend::kOptimized &&
        buckets * kWcLineKeys * sizeof(Key) <= kernel_staging_bytes() &&
        (part_bytes >= kWcMinFootprintBytes ||
         (buckets >= kernel_wc_min_buckets() &&
          my_keys.size() >= buckets * kWcLineKeys));
    Key* wc = nullptr;
    std::uint32_t* wfill = nullptr;
    std::uint32_t* wneed = nullptr;
    if (stage_writes) {
      s.ws.prepare(bits, 1);
      wc = s.ws.wc_keys.data();
      wfill = s.ws.wc_fill.data();
      wneed = s.ws.wc_need.data();
      // Phase each bucket's first flush to the destination's next
      // 64-byte boundary so later full-line flushes can stream.
      for (std::size_t b = 0; b < buckets; ++b) {
        const auto addr =
            reinterpret_cast<std::uintptr_t>(out_data + s.cursor[b]);
        const std::size_t off = (addr % 64u) / sizeof(Key);
        wneed[b] = static_cast<std::uint32_t>(
            off == 0 ? kWcLineKeys : kWcLineKeys - off);
      }
    }
    std::uint64_t local_accesses = 0, local_runs = 0;
    std::fill(w.bytes_to.begin(), w.bytes_to.end(), 0);
    std::fill(w.runs_to.begin(), w.runs_to.end(), 0);
    std::uint32_t prev_digit = ~0u;
    for (const Key k : my_keys) {
      const std::uint32_t d = radix_digit(k, s.pass, bits);
      const std::uint64_t pos = s.cursor[d]++;
      if (!stage_writes) {
        out_data[pos] = k;
      } else {
        std::uint32_t f = wfill[d];
        wc[d * kWcLineKeys + f] = k;
        ++f;
        if (f == wneed[d]) {
          wc_flush(out_data + (pos + 1 - f), wc + d * kWcLineKeys, f);
          wneed[d] = kWcLineKeys;
          f = 0;
        }
        wfill[d] = f;
      }
      while (pos >= w.owner_end[d]) {
        ++w.owner[d];
        w.owner_end[d] = homes_.end_of(w.owner[d]);
      }
      const int home = w.owner[d];
      const bool new_run = d != prev_digit;
      prev_digit = d;
      if (home == r) {
        ++local_accesses;
        local_runs += new_run ? 1 : 0;
      } else {
        w.bytes_to[static_cast<std::size_t>(home)] += sizeof(Key);
        w.runs_to[static_cast<std::size_t>(home)] += new_run ? 1 : 0;
      }
    }
    if (stage_writes) {
      // Drain partial lines (restoring the all-zero staging invariant)
      // and fence the streamed stores before the ownership hand-off.
      for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint32_t f = wfill[b];
        if (f == 0) continue;
        wc_flush(out_data + (s.cursor[b] - f), wc + b * kWcLineKeys, f);
        wfill[b] = 0;
      }
      wc_store_fence();
    }
    if (paired()) {
      // Uncharged host-side replay of the exact scatter above, from the
      // snapshotted starting cursors, onto the global payload lane.
      payload_mirror_scatter(my_keys, pay(s.in(), r),
                             pay_[static_cast<std::size_t>(s.out())], s.pass,
                             bits, s.mirror);
    }
    ctx.busy_cycles(static_cast<double>(my_keys.size()) *
                    ctx.params().cpu.permute_cycles);
    ctx.stream(my_keys.size() * sizeof(Key), part_bytes);
    if (local_accesses > 0) {
      machine::AccessPattern ap;
      ap.accesses = local_accesses;
      ap.elem_bytes = sizeof(Key);
      ap.runs = std::max<std::uint64_t>(1, local_runs);
      ap.active_regions = std::max<std::uint64_t>(1, s.active);
      ap.footprint_bytes = part_bytes;
      ctx.scattered(ap);
    }
    std::uint64_t remote_bytes = 0;
    for (int h = 0; h < p; ++h) {
      remote_bytes += w.bytes_to[static_cast<std::size_t>(h)];
    }
    const auto profile = ctx.cost().scattered_write_profile(remote_bytes);
    w.traffic.clear();
    for (int h = 0; h < p; ++h) {
      const auto hh = static_cast<std::size_t>(h);
      if (w.bytes_to[hh] == 0) continue;
      sim::ScatteredTraffic t;
      t.writer = r;
      t.home = h;
      // Fine-grained interleaving re-fetches a line on almost every run
      // switch; contiguous tails within a run transfer at line grain.
      t.lines = std::max<std::uint64_t>(
          std::max<std::uint64_t>(1, w.runs_to[hh]),
          ceil_div(w.bytes_to[hh], kLine));
      t.per_line_ns = profile.per_line_ns;
      t.transactions =
          static_cast<double>(t.lines) * profile.transactions_per_line;
      w.traffic.push_back(t);
    }
    // The stores overlap the permutation computation charged above.
    const double overlap = ctx.clock().now_ns() - permute_start_ns;
    ctx.team().scattered_write_epoch(ctx, w.traffic, overlap);
  }

  /// CC-SAS-NEW's copy-out: each staged bucket chunk moves to its global
  /// position as contiguous block copies.
  void copy_out(sim::ProcContext& ctx, RadixRank& s, double permute_start_ns) {
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const std::uint64_t part_bytes = homes_.count_of(r) * sizeof(Key);
    const Key* const buf = part(2, r).data();
    Key* const out_data = flat(s.out());
    RankScratch& w = scratch_[static_cast<std::size_t>(r)];
    w.lines_to.assign(static_cast<std::size_t>(p), 0);
    std::uint64_t local_bytes = 0;
    for (std::size_t b = 0; b < s.hist.size(); ++b) {
      if (s.hist[b] == 0) continue;
      const std::uint64_t gpos = s.global_start[b] + s.rank_prefix[b];
      for_each_piece(homes_, gpos, s.hist[b],
                     [&](int dst, std::uint64_t gp, std::uint64_t off,
                         std::uint64_t len) {
                       exchange_copy(spec_.kernel_backend, out_data + gp,
                                     buf + s.local_prefix[b] + off, len,
                                     part_bytes);
                       if (paired()) {
                         std::memcpy(
                             pay_[static_cast<std::size_t>(s.out())].data() +
                                 gp,
                             pay(2, r).data() + s.local_prefix[b] + off,
                             len * sizeof(keys::Payload));
                       }
                       if (dst == r) {
                         local_bytes += len * sizeof(Key);
                       } else {
                         w.lines_to[static_cast<std::size_t>(dst)] +=
                             ceil_div(len * sizeof(Key), kLine);
                       }
                     });
    }
    if (local_bytes > 0) ctx.stream(2 * local_bytes, part_bytes);
    // The copy-out re-reads the staging buffer for the remote chunks.
    std::uint64_t remote_lines = 0;
    for (const std::uint64_t l : w.lines_to) remote_lines += l;
    if (remote_lines > 0) ctx.stream(remote_lines * kLine, 2 * part_bytes);
    w.traffic.clear();
    for (int h = 0; h < p; ++h) {
      const auto hh = static_cast<std::size_t>(h);
      if (w.lines_to[hh] == 0) continue;
      sim::ScatteredTraffic t;
      t.writer = r;
      t.home = h;
      t.lines = w.lines_to[hh];
      t.per_line_ns = ctx.params().mem.ccsas_block_line_ns;
      // One pipelined RdEx per line.
      t.transactions = static_cast<double>(w.lines_to[hh]);
      w.traffic.push_back(t);
    }
    const double overlap = ctx.clock().now_ns() - permute_start_ns;
    ctx.team().scattered_write_epoch(ctx, w.traffic, overlap);
  }

  /// One rank's radix scratch, reused across passes.
  struct RankScratch {
    std::vector<std::uint64_t> global_cnt;  // prefix-tree bucket totals
    std::vector<int> owner;                 // per bucket: home of its cursor
    std::vector<std::uint64_t> owner_end;   // that home's partition end
    std::vector<std::uint64_t> bytes_to, runs_to, lines_to;  // per home
    std::vector<sim::ScatteredTraffic> traffic;
  };

  const bool buffered_;  // CC-SAS-NEW
  std::optional<sas::BucketScan> scan_;  // radix
  std::vector<RankScratch> scratch_;     // radix, [rank]
  // Sample sort's shared scratch.
  std::vector<Key> samples_;       // sample_count per rank, by rank
  std::vector<Key> group_sorted_;  // collectors' sorted group slots
  std::vector<Splitter> splitters_;
  std::vector<std::uint64_t> boundaries_;  // p x (p + 1)
};

// ------------------------------------------- MPI and SHMEM collectives

/// MPI and SHMEM form every global view the same way — allgather the
/// per-rank pieces, then compute redundantly on every rank (the paper's
/// design) — and differ only in the collective that gathers.
class GatheringRuntime : public ModelRuntime {
 public:
  using ModelRuntime::ModelRuntime;

  void histogram_collective(sim::ProcContext& ctx, RadixRank& s) override {
    s.all_hist.resize(static_cast<std::size_t>(ctx.nprocs()) * s.hist.size());
    allgather(ctx, s.hist, s.all_hist);
    prefixes_from_allhists(ctx, s.all_hist, s.hist.size(), s.rank_prefix,
                           s.global_start);
  }

  void splitter_collective(sim::ProcContext& ctx, SampleRank& s) override {
    // Everyone redundantly sorts the full sample set and picks splitters.
    std::vector<Key> all(s.samples.size() *
                         static_cast<std::size_t>(ctx.nprocs()));
    allgather(ctx, s.samples, all);
    pick_splitters(all, spec_.ablations.sample_count, s.splitters);
    charged_small_sort(ctx, all);
  }

  std::span<const std::uint64_t> bounds_collective(sim::ProcContext& ctx,
                                                   SampleRank& s) override {
    s.all_bounds.resize(static_cast<std::size_t>(ctx.nprocs()) *
                        s.bounds.size());
    allgather(ctx, s.bounds, s.all_bounds);
    return s.all_bounds;
  }

 protected:
  /// `in` from every rank, concatenated by rank into `out` on every rank.
  virtual void allgather(sim::ProcContext& ctx,
                         std::span<const std::uint64_t> in,
                         std::span<std::uint64_t> out) = 0;
  virtual void allgather(sim::ProcContext& ctx, std::span<const Key> in,
                         std::span<Key> out) = 0;
};

// ------------------------------------------------------------------- MPI

class MpiRuntime final : public GatheringRuntime {
 public:
  MpiRuntime(const SortSpec& spec, sim::SimTeam& team)
      : GatheringRuntime(spec, arrays_for(spec)),
        comm_(team, spec.ablations.mpi_impl),
        scratch_(static_cast<std::size_t>(spec.nprocs)) {
    use_flat_storage();
  }

  Key max_reduce(sim::ProcContext& ctx, Key local) override {
    return comm_.allreduce_max<Key>(ctx, local);
  }
  void barrier(sim::ProcContext& ctx) override { comm_.barrier(ctx); }

  void radix_permute(sim::ProcContext& ctx, RadixRank& s) override {
    stage_locally(ctx, s);
    ctx.phase("redistribution");
    if (spec_.ablations.mpi_chunk_messages) {
      send_chunks(ctx, s);
    } else {
      send_coalesced(ctx, s);
    }
    copy_back(ctx, s);
  }

  void sample_exchange(sim::ProcContext& ctx, SampleRank& s,
                       std::span<const std::uint64_t> all_bounds) override {
    // One contiguous message per destination (the sample-sort property
    // the paper highlights).
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const auto rr = static_cast<std::size_t>(r);
    const auto cnt_from_to = [&](int src, int dst) {
      const std::uint64_t* bs = bounds_row(all_bounds, p, src);
      return bs[dst + 1] - bs[dst];
    };
    std::vector<Key>& out = result[rr];
    const std::uint64_t total = out.size();
    std::vector<msg::Communicator::Send> sends;
    for (int dst = 0; dst < p; ++dst) {
      const std::uint64_t cnt = cnt_from_to(r, dst);
      if (cnt == 0) continue;
      const Key* src = s.mine.data() + s.bounds[static_cast<std::size_t>(dst)];
      std::uint64_t dst_off = 0;
      for (int j = 0; j < r; ++j) dst_off += cnt_from_to(j, dst);
      if (dst == r) {
        exchange_copy(spec_.kernel_backend, out.data() + dst_off, src, cnt,
                      total * sizeof(Key));
        ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
        continue;
      }
      sends.push_back(msg::Communicator::Send{
          dst, dst_off * sizeof(Key), reinterpret_cast<const std::byte*>(src),
          cnt * sizeof(Key)});
    }
    ctx.busy_cycles(static_cast<double>(p) * ctx.params().cpu.scan_cycles);
    comm_.exchange(ctx, sends, std::as_writable_bytes(std::span<Key>(out)));
  }

 protected:
  void allgather(sim::ProcContext& ctx, std::span<const std::uint64_t> in,
                 std::span<std::uint64_t> out) override {
    comm_.allgather<std::uint64_t>(ctx, in, out);
  }
  void allgather(sim::ProcContext& ctx, std::span<const Key> in,
                 std::span<Key> out) override {
    comm_.allgather<Key>(ctx, in, out);
  }

 private:
  /// One message per contiguously-destined chunk piece (the paper's
  /// preferred implementation) — placed directly at its final offset.
  void send_chunks(sim::ProcContext& ctx, RadixRank& s) {
    const int r = ctx.rank();
    const std::uint64_t part_bytes = homes_.count_of(r) * sizeof(Key);
    const Key* const buf = part(2, r).data();
    const std::span<Key> out = part(s.out(), r);
    RankScratch& w = scratch_[static_cast<std::size_t>(r)];
    w.sends.clear();
    for (std::size_t b = 0; b < s.hist.size(); ++b) {
      if (s.hist[b] == 0) continue;
      const std::uint64_t gpos = s.global_start[b] + s.rank_prefix[b];
      for_each_piece(
          homes_, gpos, s.hist[b],
          [&](int dst, std::uint64_t gp, std::uint64_t off, std::uint64_t len) {
            const Key* src = buf + s.local_prefix[b] + off;
            if (paired()) {
              // Sender-side payload push: destination lanes are
              // preallocated, pieces land at disjoint final offsets, and
              // the collective exchange below orders every lane write
              // before the receiver's next-pass reads.
              std::memcpy(
                  pay(s.out(), dst).data() + (gp - homes_.begin_of(dst)),
                  pay(2, r).data() + s.local_prefix[b] + off,
                  len * sizeof(keys::Payload));
            }
            if (dst == r) {
              exchange_copy(spec_.kernel_backend,
                            out.data() + (gp - homes_.begin_of(r)), src, len,
                            part_bytes);
              ctx.stream(2 * len * sizeof(Key), part_bytes);
              return;
            }
            w.sends.push_back(msg::Communicator::Send{
                dst, (gp - homes_.begin_of(dst)) * sizeof(Key),
                reinterpret_cast<const std::byte*>(src), len * sizeof(Key)});
          });
    }
    comm_.exchange(ctx, w.sends, std::as_writable_bytes(out));
  }

  /// NAS-IS style ablation: one coalesced message per destination; the
  /// receiver reorganises pieces into place afterwards. A destination's
  /// pieces are contiguous in the bucket-major staging buffer (global
  /// positions ascend with the bucket), so the sender needs no extra copy
  /// — the cost moves to the receiver-side scatter.
  void send_coalesced(sim::ProcContext& ctx, RadixRank& s) {
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const std::size_t buckets = s.hist.size();
    const Index n_local = homes_.count_of(r);
    const std::uint64_t part_bytes = n_local * sizeof(Key);
    const Key* const buf = part(2, r).data();
    const std::span<Key> out = part(s.out(), r);
    RankScratch& w = scratch_[static_cast<std::size_t>(r)];
    w.recv.resize(n_local);
    // M[i][dst] = keys process i contributes to dst's partition, built in
    // O(p * buckets) with running per-bucket rank prefixes.
    w.matrix.assign(static_cast<std::size_t>(p) * static_cast<std::size_t>(p),
                    0);
    w.run_prefix.assign(buckets, 0);
    for (int j = 0; j < p; ++j) {
      const std::uint64_t* row =
          s.all_hist.data() + static_cast<std::size_t>(j) * buckets;
      for (std::size_t b = 0; b < buckets; ++b) {
        if (row[b] == 0) continue;
        for_each_piece(homes_, s.global_start[b] + w.run_prefix[b], row[b],
                       [&](int dst, std::uint64_t, std::uint64_t,
                           std::uint64_t len) {
                         w.matrix[static_cast<std::size_t>(j) *
                                      static_cast<std::size_t>(p) +
                                  static_cast<std::size_t>(dst)] += len;
                       });
        w.run_prefix[b] += row[b];
      }
    }
    ctx.busy_cycles(static_cast<double>(static_cast<std::size_t>(p) *
                                        buckets) *
                    ctx.params().cpu.scan_cycles);

    const auto keys_from_to = [&](int src, int dst) {
      return w.matrix[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(p) +
                      static_cast<std::size_t>(dst)];
    };
    w.sends.clear();
    // My blob for dst starts where my pieces to lower dsts end.
    std::uint64_t my_buf_off = 0;
    for (int dst = 0; dst < p; ++dst) {
      const std::uint64_t len = keys_from_to(r, dst);
      if (len == 0) continue;
      std::uint64_t stage_off = 0;  // dst's staging offset for my blob
      for (int i = 0; i < r; ++i) stage_off += keys_from_to(i, dst);
      if (dst != r) {
        w.sends.push_back(msg::Communicator::Send{
            dst, stage_off * sizeof(Key),
            reinterpret_cast<const std::byte*>(buf + my_buf_off),
            len * sizeof(Key)});
      } else {
        exchange_copy(spec_.kernel_backend, w.recv.data() + stage_off,
                      buf + my_buf_off, len, part_bytes);
        ctx.stream(2 * len * sizeof(Key), part_bytes);
      }
      my_buf_off += len;
    }
    comm_.exchange(ctx, w.sends,
                   std::as_writable_bytes(std::span<Key>(w.recv)));

    // Receiver-side reorganisation: scatter pieces from the (by-source,
    // by-bucket ordered) staging area to their final positions.
    const std::uint64_t my_begin = homes_.begin_of(r);
    const std::uint64_t my_end = homes_.end_of(r);
    std::fill(w.run_prefix.begin(), w.run_prefix.end(), 0);
    std::uint64_t stage_pos = 0;
    std::uint64_t pieces = 0;
    for (int j = 0; j < p; ++j) {
      const std::uint64_t* row =
          s.all_hist.data() + static_cast<std::size_t>(j) * buckets;
      for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint64_t cnt = row[b];
        if (cnt == 0) continue;
        const std::uint64_t gpos = s.global_start[b] + w.run_prefix[b];
        const std::uint64_t lo = std::max(gpos, my_begin);
        const std::uint64_t hi = std::min(gpos + cnt, my_end);
        if (lo < hi) {
          exchange_copy(spec_.kernel_backend, out.data() + (lo - my_begin),
                        w.recv.data() + stage_pos, hi - lo, part_bytes);
          stage_pos += hi - lo;
          ++pieces;
        }
        w.run_prefix[b] += cnt;
      }
    }
    DSM_CHECK(stage_pos == n_local,
              "coalesced staging must refill the partition");
    ctx.busy_cycles(static_cast<double>(n_local) *
                    ctx.params().cpu.buffer_copy_cycles);
    ctx.stream(n_local * sizeof(Key), part_bytes);  // staging read
    if (n_local > 0) {
      machine::AccessPattern ap;
      ap.accesses = n_local;
      ap.elem_bytes = sizeof(Key);
      ap.runs = std::max<std::uint64_t>(1, pieces);
      ap.active_regions = std::max<std::uint64_t>(1, pieces);
      ap.footprint_bytes = part_bytes;
      ctx.scattered(ap);
    }
  }

  /// One rank's radix scratch, reused across passes.
  struct RankScratch {
    std::vector<msg::Communicator::Send> sends;
    std::vector<std::uint64_t> run_prefix, matrix;  // coalesced ablation
    std::vector<Key> recv;  // coalesced ablation: receive staging
  };

  msg::Communicator comm_;
  std::vector<RankScratch> scratch_;  // [rank]
};

// ----------------------------------------------------------------- SHMEM

class ShmemRuntime final : public GatheringRuntime {
 public:
  ShmemRuntime(const SortSpec& spec, sim::SimTeam& team)
      : GatheringRuntime(spec, arrays_for(spec)),
        heap_(spec.nprocs, segment_bytes(spec)),
        sh_(team, heap_),
        scratch_(static_cast<std::size_t>(spec.nprocs)) {
    // Leading partitions are the largest: every symmetric array holds one.
    const Index cap = homes_.count_of(0);
    for (int a = 0; a < arrays_; ++a) {
      off_.push_back(heap_.alloc<Key>(cap));
      for (int r = 0; r < spec.nprocs; ++r) {
        base_[index(a, r)] = heap_.at<Key>(r, off_.back());
      }
    }
  }

  Key max_reduce(sim::ProcContext& ctx, Key local) override {
    return sh_.max_to_all<Key>(ctx, local);
  }
  void barrier(sim::ProcContext& ctx) override { sh_.barrier_all(ctx); }

  void radix_permute(sim::ProcContext& ctx, RadixRank& s) override {
    stage_locally(ctx, s);
    ctx.phase("redistribution");
    sh_.barrier_all(ctx);  // staging buffers are now globally readable
    if (!spec_.ablations.shmem_use_put) {
      get_pieces(ctx, s);
    } else {
      put_pieces(ctx, s);
    }
    sh_.barrier_all(ctx);
    if (spec_.ablations.shmem_use_put && !s.last_pass()) {
      // Put-based delivery (ablation) leaves the keys in memory, not in
      // this PE's cache: charge the cold re-fetch a get would have hidden.
      const std::uint64_t part_bytes =
          homes_.count_of(ctx.rank()) * sizeof(Key);
      const double extra =
          ctx.cost().stream_ns(part_bytes, ctx.params().l2.bytes * 2) -
          ctx.cost().stream_ns(part_bytes, part_bytes);
      if (extra > 0) ctx.clock().charge(sim::Cat::kLMem, extra);
    }
    copy_back(ctx, s);
  }

  void sample_exchange(sim::ProcContext& ctx, SampleRank& s,
                       std::span<const std::uint64_t> all_bounds) override {
    // Pull my ranges from every PE's symmetric partition with get().
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const auto rr = static_cast<std::size_t>(r);
    std::vector<Key>& out = result[rr];
    const std::uint64_t total = out.size();
    std::vector<shmem::GetOp> gets;
    std::uint64_t pos = 0;
    for (int j = 0; j < p; ++j) {
      const std::uint64_t* bj = bounds_row(all_bounds, p, j);
      const std::uint64_t cnt = bj[r + 1] - bj[r];
      if (cnt == 0) continue;
      if (j == r) {
        exchange_copy(spec_.kernel_backend, out.data() + pos,
                      s.mine.data() + bj[r], cnt, total * sizeof(Key));
        ctx.stream(2 * cnt * sizeof(Key), 2 * cnt * sizeof(Key));
      } else {
        gets.push_back(shmem::GetOp{
            reinterpret_cast<std::byte*>(out.data() + pos), j,
            off_[0] + bj[r] * sizeof(Key), cnt * sizeof(Key)});
      }
      pos += cnt;
    }
    ctx.busy_cycles(static_cast<double>(p) * ctx.params().cpu.scan_cycles);
    sh_.get_phase(ctx, gets);
  }

 protected:
  void allgather(sim::ProcContext& ctx, std::span<const std::uint64_t> in,
                 std::span<std::uint64_t> out) override {
    sh_.fcollect<std::uint64_t>(ctx, in, out);
  }
  void allgather(sim::ProcContext& ctx, std::span<const Key> in,
                 std::span<Key> out) override {
    sh_.fcollect<Key>(ctx, in, out);
  }

 private:
  /// Per-PE segment: one partition-capacity array per storage array
  /// (radix's three each carry 64 bytes of alignment slack; the sample
  /// skeleton's single array starts at offset 0) plus 4 KiB of headroom.
  static std::uint64_t segment_bytes(const SortSpec& spec) {
    const Index cap = sas::HomeMap(spec.n, spec.nprocs).count_of(0);
    return static_cast<std::uint64_t>(arrays_for(spec)) *
               (cap * sizeof(Key) + (spec.algo == Algo::kRadix ? 64 : 0)) +
           4096;
  }

  /// Receiver-initiated: fetch every chunk piece that lands in my
  /// partition from its source PE's staging buffer.
  void get_pieces(sim::ProcContext& ctx, RadixRank& s) {
    const int p = ctx.nprocs();
    const int r = ctx.rank();
    const std::size_t buckets = s.hist.size();
    const std::uint64_t part_bytes = homes_.count_of(r) * sizeof(Key);
    const Key* const stage = part(2, r).data();
    Key* const out = part(s.out(), r).data();
    const std::uint64_t my_begin = homes_.begin_of(r);
    const std::uint64_t my_end = homes_.end_of(r);
    RankScratch& w = scratch_[static_cast<std::size_t>(r)];
    w.gets.clear();
    w.run_prefix.assign(buckets, 0);  // sum of ranks < j
    for (int j = 0; j < p; ++j) {
      const std::uint64_t* row =
          s.all_hist.data() + static_cast<std::size_t>(j) * buckets;
      std::uint64_t src_prefix = 0;  // local prefix within j's staging
      for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint64_t cnt = row[b];
        if (cnt == 0) continue;
        const std::uint64_t gpos = s.global_start[b] + w.run_prefix[b];
        const std::uint64_t lo = std::max(gpos, my_begin);
        const std::uint64_t hi = std::min(gpos + cnt, my_end);
        if (lo < hi) {
          const std::uint64_t src = src_prefix + (lo - gpos);
          if (paired()) {
            // Receiver-side payload pull from j's staged lane, published
            // by the pre-redistribution barrier.
            std::memcpy(pay(s.out(), r).data() + (lo - my_begin),
                        pay(2, j).data() + src,
                        (hi - lo) * sizeof(keys::Payload));
          }
          if (j == r) {
            exchange_copy(spec_.kernel_backend, out + (lo - my_begin),
                          stage + src, hi - lo, part_bytes);
            ctx.stream(2 * (hi - lo) * sizeof(Key), part_bytes);
          } else {
            w.gets.push_back(shmem::GetOp{
                reinterpret_cast<std::byte*>(out + (lo - my_begin)), j,
                off_[2] + src * sizeof(Key), (hi - lo) * sizeof(Key)});
          }
        }
        w.run_prefix[b] += cnt;
        src_prefix += cnt;
      }
    }
    // Parameter computation sweep over the p x B histogram matrix.
    ctx.busy_cycles(static_cast<double>(static_cast<std::size_t>(p) *
                                        buckets) *
                    ctx.params().cpu.scan_cycles);
    sh_.get_phase(ctx, w.gets);
  }

  /// Sender-initiated ablation: push my chunks into their destinations.
  void put_pieces(sim::ProcContext& ctx, RadixRank& s) {
    const int r = ctx.rank();
    const std::uint64_t part_bytes = homes_.count_of(r) * sizeof(Key);
    const Key* const stage = part(2, r).data();
    const std::uint64_t out_off = off_[static_cast<std::size_t>(s.out())];
    std::vector<shmem::PutOp>& puts =
        scratch_[static_cast<std::size_t>(r)].puts;
    puts.clear();
    for (std::size_t b = 0; b < s.hist.size(); ++b) {
      if (s.hist[b] == 0) continue;
      const std::uint64_t gpos = s.global_start[b] + s.rank_prefix[b];
      for_each_piece(
          homes_, gpos, s.hist[b],
          [&](int dst, std::uint64_t gp, std::uint64_t off, std::uint64_t len) {
            const Key* src = stage + s.local_prefix[b] + off;
            if (dst == r) {
              exchange_copy(spec_.kernel_backend,
                            part(s.out(), r).data() + (gp - homes_.begin_of(r)),
                            src, len, part_bytes);
              ctx.stream(2 * len * sizeof(Key), part_bytes);
              return;
            }
            puts.push_back(shmem::PutOp{
                reinterpret_cast<const std::byte*>(src), dst,
                out_off + (gp - homes_.begin_of(dst)) * sizeof(Key),
                len * sizeof(Key)});
          });
    }
    sh_.put_phase(ctx, puts);
  }

  /// One rank's radix scratch, reused across passes.
  struct RankScratch {
    std::vector<shmem::GetOp> gets;
    std::vector<shmem::PutOp> puts;
    std::vector<std::uint64_t> run_prefix;
  };

  shmem::SymmetricHeap heap_;
  shmem::Shmem sh_;
  std::vector<std::uint64_t> off_;  // [array] symmetric offset
  std::vector<RankScratch> scratch_;  // [rank]
};

}  // namespace

// ------------------------------------------------------------ the seam

RadixRank::RadixRank(int radix_bits, bool paired)
    : hist(std::size_t{1} << radix_bits),
      rank_prefix(hist.size()),
      global_start(hist.size()),
      local_prefix(hist.size()),
      cursor(hist.size()),
      mirror(paired ? hist.size() : 0) {}

ModelRuntime::ModelRuntime(const SortSpec& spec, int arrays)
    : spec_(spec),
      homes_(spec.n, spec.nprocs),
      arrays_(arrays),
      base_(static_cast<std::size_t>(arrays) *
            static_cast<std::size_t>(spec.nprocs)) {
  const bool paired = keys::record_info(spec.record).has_payload;
  if (paired) {
    pay_.assign(static_cast<std::size_t>(arrays),
                std::vector<keys::Payload>(spec.n));
  }
  if (spec.algo != Algo::kRadix) {
    result.resize(static_cast<std::size_t>(spec.nprocs));
    if (paired) pay_result.resize(static_cast<std::size_t>(spec.nprocs));
  }
}

void ModelRuntime::use_flat_storage() {
  flat_.resize(static_cast<std::size_t>(arrays_));
  for (int a = 0; a < arrays_; ++a) {
    std::vector<Key>& keys = flat_[static_cast<std::size_t>(a)];
    keys.resize(spec_.n);
    for (int r = 0; r < homes_.nprocs(); ++r) {
      base_[index(a, r)] = keys.data() + homes_.begin_of(r);
    }
  }
}

std::uint64_t ModelRuntime::label_payloads() {
  if (!paired()) return 0;
  std::vector<keys::Payload>& lane = pay_[0];
  for (std::size_t i = 0; i < lane.size(); ++i) {
    lane[i] = static_cast<keys::Payload>(i);
  }
  // The fingerprint is a wrapping sum, so per-rank pieces add up to the
  // fingerprint of the whole input.
  std::uint64_t fp = 0;
  for (int r = 0; r < homes_.nprocs(); ++r) {
    fp += pair_fingerprint(part(0, r), pay(0, r));
  }
  return fp;
}

ModelRuntime::Runs ModelRuntime::radix_output() const {
  Runs out;
  for (int r = 0; r < homes_.nprocs(); ++r) {
    out.keys.emplace_back(part(0, r));
    if (paired()) {
      out.pays.emplace_back(std::span<const keys::Payload>(pay_[0]).subspan(
          homes_.begin_of(r), homes_.count_of(r)));
    }
  }
  return out;
}

ModelRuntime::Runs ModelRuntime::output() const {
  if (spec_.algo == Algo::kRadix) return radix_output();
  Runs out;
  for (const auto& run : result) out.keys.emplace_back(run);
  for (const auto& lane : pay_result) out.pays.emplace_back(lane);
  return out;
}

/// Buffered local permutation: scatter part(in) into the staging array in
/// bucket-major order (the local staging step of CC-SAS-NEW / MPI /
/// SHMEM). On return `local_prefix[b]` is the start of bucket b's chunk
/// within the stage. Charged with the measured run structure; the backend
/// only changes how the host executes the scatter.
void ModelRuntime::stage_locally(sim::ProcContext& ctx, RadixRank& s) {
  const int r = ctx.rank();
  const std::span<const Key> keys = part(s.in(), r);
  exclusive_prefix(ctx, s.hist, s.local_prefix);
  std::copy(s.local_prefix.begin(), s.local_prefix.end(), s.cursor.begin());
  charged_local_permute(ctx, keys, part(2, r), s.pass, spec_.radix_bits,
                        s.cursor, s.active, spec_.kernel_backend, s.ws);
  ctx.busy_cycles(static_cast<double>(keys.size()) *
                  ctx.params().cpu.buffer_copy_cycles);
  if (paired()) {
    // Replay the staging scatter on the payload lane from the bucket
    // starts (cursor was the consumed copy).
    std::copy(s.local_prefix.begin(), s.local_prefix.end(), s.mirror.begin());
    payload_mirror_scatter(keys, pay(s.in(), r), pay(2, r), s.pass,
                           spec_.radix_bits, s.mirror);
  }
}

/// Partitioned models keep the sorted keys in array 0: after an odd pass
/// count the last pass wrote array 1, so copy it home.
void ModelRuntime::copy_back(sim::ProcContext& ctx, RadixRank& s) {
  if (!s.last_pass() || s.passes % 2 == 0) return;
  const int r = ctx.rank();
  const Index n_local = homes_.count_of(r);
  const std::uint64_t part_bytes = n_local * sizeof(Key);
  exchange_copy(spec_.kernel_backend, part(0, r).data(), part(1, r).data(),
                n_local, part_bytes);
  if (paired()) {
    std::memcpy(pay(0, r).data(), pay(1, r).data(),
                n_local * sizeof(keys::Payload));
  }
  ctx.stream(2 * part_bytes, 2 * part_bytes);
}

std::unique_ptr<ModelRuntime> make_runtime(const SortSpec& spec,
                                           sim::SimTeam& team) {
  switch (spec.model) {
    case Model::kCcSas:
    case Model::kCcSasNew: return std::make_unique<CcSasRuntime>(spec);
    case Model::kMpi: return std::make_unique<MpiRuntime>(spec, team);
    case Model::kShmem: return std::make_unique<ShmemRuntime>(spec, team);
  }
  throw Error("unhandled model");
}

}  // namespace dsm::sort
