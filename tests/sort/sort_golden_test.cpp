// Golden oracle for the full-sort driver: every feasible {algo x model}
// cell, for both record types, at n = 20011 and p in {1, 6, 16}, plus one
// cell per model-specific ablation. Each row pins the exact bit pattern of
// elapsed_ns, hashes of per_proc and of the phase report (names included),
// the output order hash and the pass count, captured from a known-good
// build. Floating-point sums depend on order, so any change to the order
// in which a rank issues its charges shows up here, not just a change in
// what is charged.
//
// On a mismatch the failure message prints the row as this build computes
// it, in table syntax, so an intended change to the cost model can be
// re-pinned by pasting the printed rows over the old ones.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sort/sort_api.hpp"

namespace dsm::sort {
namespace {

using keys::RecordType;

/// Which model-specific ablation a row turns on (kNone = paper defaults).
enum class Abl {
  kNone,
  kSgiMpi,          // ablations.mpi_impl = kStaged
  kCoalescedMpi,    // ablations.mpi_chunk_messages = false
  kShmemPut,        // ablations.shmem_use_put = true
  kDetectMaxKey,    // ablations.detect_max_key = true
  kSplitterGroup4,  // ablations.sample_group_size = 4
};

struct Golden {
  Algo algo;
  Model model;
  RecordType record;
  int nprocs;
  Abl ablation;
  std::uint64_t elapsed_bits;
  std::uint64_t per_proc_hash;
  std::uint64_t phases_hash;
  std::uint64_t run_hash;
  int passes;
};

constexpr Index kN = 20011;

constexpr auto kRadix = Algo::kRadix;
constexpr auto kSample = Algo::kSample;
constexpr auto kMsd = Algo::kMsdRadix;
constexpr auto kMerge = Algo::kMergesort;
constexpr auto kCcSas = Model::kCcSas;
constexpr auto kCcSasNew = Model::kCcSasNew;
constexpr auto kMpi = Model::kMpi;
constexpr auto kShmem = Model::kShmem;
constexpr auto kU32 = RecordType::kU32;
constexpr auto kKv32 = RecordType::kKeyPayload32;

// clang-format off
const Golden kGolden[] = {
    {kRadix, kCcSas, kU32, 1, Abl::kNone,
     0x41728c1184b7cb7dull, 0xbb4259a3847dcf8dull, 0xad5e23188a5f3e0bull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSas, kU32, 6, Abl::kNone,
     0x415ad83551d89d8aull, 0xbf107d99d5701483ull, 0x9dc25d27a5d74bb4ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSas, kU32, 16, Abl::kNone,
     0x4148a86c33483485ull, 0x884336b2f6da6800ull, 0xb557c432bd84faf9ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSas, kKv32, 1, Abl::kNone,
     0x41728c1184b7cb7dull, 0xbb4259a3847dcf8dull, 0xad5e23188a5f3e0bull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSas, kKv32, 6, Abl::kNone,
     0x415ad83551d89d8aull, 0xbf107d99d5701483ull, 0x9dc25d27a5d74bb4ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSas, kKv32, 16, Abl::kNone,
     0x4148a86c33483485ull, 0x884336b2f6da6800ull, 0xb557c432bd84faf9ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSasNew, kU32, 1, Abl::kNone,
     0x417a6f091520d20full, 0x0ef6f5c76a3b0bc2ull, 0x3ecdcac6711dde8eull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSasNew, kU32, 6, Abl::kNone,
     0x4162d7b535be5be6ull, 0x66f89a8359a14321ull, 0x32a92850914251d0ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSasNew, kU32, 16, Abl::kNone,
     0x415bf01d56c4ec4eull, 0x564a86c58a99dc00ull, 0x091710d4621886c7ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSasNew, kKv32, 1, Abl::kNone,
     0x417a6f091520d20full, 0x0ef6f5c76a3b0bc2ull, 0x3ecdcac6711dde8eull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSasNew, kKv32, 6, Abl::kNone,
     0x4162d7b535be5be6ull, 0x66f89a8359a14321ull, 0x32a92850914251d0ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSasNew, kKv32, 16, Abl::kNone,
     0x415bf01d56c4ec4eull, 0x564a86c58a99dc00ull, 0x091710d4621886c7ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kU32, 1, Abl::kNone,
     0x417a6ab20313b13cull, 0xe5923b0f1ae9ee97ull, 0x8f4d535cde324187ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kU32, 6, Abl::kNone,
     0x416bb96173cb7cbdull, 0x94dd98518d14ed4full, 0x881c43c18cf4d38dull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kU32, 16, Abl::kNone,
     0x416b695cd1f2df35ull, 0x03956f661733c946ull, 0xfae86bf5399342f1ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kKv32, 1, Abl::kNone,
     0x417a6ab20313b13cull, 0xe5923b0f1ae9ee97ull, 0x8f4d535cde324187ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kKv32, 6, Abl::kNone,
     0x416bb96173cb7cbdull, 0x94dd98518d14ed4full, 0x881c43c18cf4d38dull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kKv32, 16, Abl::kNone,
     0x416b695cd1f2df35ull, 0x03956f661733c946ull, 0xfae86bf5399342f1ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kShmem, kU32, 1, Abl::kNone,
     0x417a6fd2d520d20full, 0xd88cd332da7b10c0ull, 0x84c0e8213d64ec1dull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kShmem, kU32, 6, Abl::kNone,
     0x41624e9e8069068full, 0x97b9ab4c8027218bull, 0x43595c1438b72b55ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kShmem, kU32, 16, Abl::kNone,
     0x4160cafa1c4ec4eeull, 0x229b6d5e97b69480ull, 0x89c975d914401becull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kShmem, kKv32, 1, Abl::kNone,
     0x417a6fd2d520d20full, 0xd88cd332da7b10c0ull, 0x84c0e8213d64ec1dull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kShmem, kKv32, 6, Abl::kNone,
     0x41624e9e8069068full, 0x97b9ab4c8027218bull, 0x43595c1438b72b55ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kShmem, kKv32, 16, Abl::kNone,
     0x4160cafa1c4ec4eeull, 0x229b6d5e97b69480ull, 0x89c975d914401becull,
     0x7651c653ac879e85ull, 4},
    {kSample, kCcSas, kU32, 1, Abl::kNone,
     0x418288badfcb7cb9ull, 0xd9238e795567d6b8ull, 0xfbe4085d5124dcb1ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kCcSas, kU32, 6, Abl::kNone,
     0x415ac30da8535d60ull, 0x81964212e7432345ull, 0xb6a729ab838bb441ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kCcSas, kU32, 16, Abl::kNone,
     0x414c38ef62f08a92ull, 0x38846775bccc153cull, 0xb04ac62eee9b7e59ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kCcSas, kKv32, 1, Abl::kNone,
     0x418288badfcb7cb9ull, 0xd9238e795567d6b8ull, 0xfbe4085d5124dcb1ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kCcSas, kKv32, 6, Abl::kNone,
     0x415ac30da8535d60ull, 0x81964212e7432345ull, 0xb6a729ab838bb441ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kCcSas, kKv32, 16, Abl::kNone,
     0x414c38ef62f08a92ull, 0x38846775bccc153cull, 0xb04ac62eee9b7e59ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kMpi, kU32, 1, Abl::kNone,
     0x4182881769a41a43ull, 0x4e1b35beed7a91b8ull, 0xb6868c4e5a35a7b8ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kMpi, kU32, 6, Abl::kNone,
     0x415b5e8fafb5d387ull, 0x5b67797bc5affaccull, 0x38ed67079fbd6169ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kMpi, kU32, 16, Abl::kNone,
     0x414e394dc8caa1d6ull, 0x4b4fd42bc153c796ull, 0x40793fa660efea66ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kMpi, kKv32, 1, Abl::kNone,
     0x4182881769a41a43ull, 0x4e1b35beed7a91b8ull, 0xb6868c4e5a35a7b8ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kMpi, kKv32, 6, Abl::kNone,
     0x415b5e8fafb5d387ull, 0x5b67797bc5affaccull, 0x38ed67079fbd6169ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kMpi, kKv32, 16, Abl::kNone,
     0x414e394dc8caa1d6ull, 0x4b4fd42bc153c796ull, 0x40793fa660efea66ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kShmem, kU32, 1, Abl::kNone,
     0x4182881769a41a43ull, 0x4e1b35beed7a91b8ull, 0xb6868c4e5a35a7b8ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kShmem, kU32, 6, Abl::kNone,
     0x415add7e371849afull, 0xf35bd5c0f9d86f10ull, 0x225a0707c4020c72ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kShmem, kU32, 16, Abl::kNone,
     0x414c43979c7bdceaull, 0x465bc9e036c1b4cdull, 0xb3d99941dc8470eeull,
     0x7651c653ac879e85ull, 4},
    {kSample, kShmem, kKv32, 1, Abl::kNone,
     0x4182881769a41a43ull, 0x4e1b35beed7a91b8ull, 0xb6868c4e5a35a7b8ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kShmem, kKv32, 6, Abl::kNone,
     0x415add7e371849afull, 0xf35bd5c0f9d86f10ull, 0x225a0707c4020c72ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kShmem, kKv32, 16, Abl::kNone,
     0x414c43979c7bdceaull, 0x465bc9e036c1b4cdull, 0xb3d99941dc8470eeull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kCcSas, kU32, 1, Abl::kNone,
     0x4174b9fe034835c8ull, 0x4f5a1f709242438aull, 0x9df1e6f36ec59100ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kCcSas, kU32, 6, Abl::kNone,
     0x41501ecb822bfb33ull, 0xf7e9b8171c3c6747ull, 0x6b8883d20074097aull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kCcSas, kU32, 16, Abl::kNone,
     0x41433f858566b1f2ull, 0xa5229be1d23a02a5ull, 0xb376bfb0b0bb0facull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kCcSas, kKv32, 1, Abl::kNone,
     0x4174b9fe034835c8ull, 0x4f5a1f709242438aull, 0x9df1e6f36ec59100ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kCcSas, kKv32, 6, Abl::kNone,
     0x41501ecb822bfb33ull, 0xf7e9b8171c3c6747ull, 0x6b8883d20074097aull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kCcSas, kKv32, 16, Abl::kNone,
     0x41433f858566b1f2ull, 0xa5229be1d23a02a5ull, 0xb376bfb0b0bb0facull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kMpi, kU32, 1, Abl::kNone,
     0x4174b8b716f970dcull, 0x54677f6852ebc28dull, 0x315ca5380abef416ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kMpi, kU32, 6, Abl::kNone,
     0x4150bf253d3fac6eull, 0x4fcf9303ed200748ull, 0x341c44362f2788fbull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kMpi, kU32, 16, Abl::kNone,
     0x41453e556b40c94eull, 0xb7bfbc69e5359fd7ull, 0x05419f9b93d123e3ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kMpi, kKv32, 1, Abl::kNone,
     0x4174b8b716f970dcull, 0x54677f6852ebc28dull, 0x315ca5380abef416ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kMpi, kKv32, 6, Abl::kNone,
     0x4150bf253d3fac6eull, 0x4fcf9303ed200748ull, 0x341c44362f2788fbull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kMpi, kKv32, 16, Abl::kNone,
     0x41453e556b40c94eull, 0xb7bfbc69e5359fd7ull, 0x05419f9b93d123e3ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kShmem, kU32, 1, Abl::kNone,
     0x4174b8b716f970dcull, 0x54677f6852ebc28dull, 0x315ca5380abef416ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kShmem, kU32, 6, Abl::kNone,
     0x4150398650f0e782ull, 0xbe4d7abbc7d8b6b4ull, 0x9db0eee5a1fc519bull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kShmem, kU32, 16, Abl::kNone,
     0x4143489f3ef20460ull, 0x31fc5ca8dc58c224ull, 0xd73067ba569f3778ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kShmem, kKv32, 1, Abl::kNone,
     0x4174b8b716f970dcull, 0x54677f6852ebc28dull, 0x315ca5380abef416ull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kShmem, kKv32, 6, Abl::kNone,
     0x4150398650f0e782ull, 0xbe4d7abbc7d8b6b4ull, 0x9db0eee5a1fc519bull,
     0x7651c653ac879e85ull, 4},
    {kMsd, kShmem, kKv32, 16, Abl::kNone,
     0x4143489f3ef20460ull, 0x31fc5ca8dc58c224ull, 0xd73067ba569f3778ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kCcSas, kU32, 1, Abl::kNone,
     0x417ff290b7f2df33ull, 0x2de21564528b4e72ull, 0xe54b3cf461a5352eull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kCcSas, kU32, 6, Abl::kNone,
     0x41640ac87636cf82ull, 0xf4877be3a526984eull, 0xedc35eb296275864ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kCcSas, kU32, 16, Abl::kNone,
     0x415290726943c200ull, 0x340ca66cf8b126f6ull, 0x9a730aab06f305b2ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kCcSas, kKv32, 1, Abl::kNone,
     0x417ff290b7f2df33ull, 0x2de21564528b4e72ull, 0xe54b3cf461a5352eull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kCcSas, kKv32, 6, Abl::kNone,
     0x41640ac87636cf82ull, 0xf4877be3a526984eull, 0xedc35eb296275864ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kCcSas, kKv32, 16, Abl::kNone,
     0x415290726943c200ull, 0x340ca66cf8b126f6ull, 0x9a730aab06f305b2ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kMpi, kU32, 1, Abl::kNone,
     0x417ff149cba41a46ull, 0xbe11f5999e685bd6ull, 0x7cd7e45990c59192ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kMpi, kU32, 6, Abl::kNone,
     0x416458c799e80a95ull, 0xb648e4130edfec03ull, 0x52e6d17c6ae237afull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kMpi, kU32, 16, Abl::kNone,
     0x41538ff35c30cda4ull, 0xa9276b3e52399f74ull, 0x25e6c9b0b935d1c4ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kMpi, kKv32, 1, Abl::kNone,
     0x417ff149cba41a46ull, 0xbe11f5999e685bd6ull, 0x7cd7e45990c59192ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kMpi, kKv32, 6, Abl::kNone,
     0x416458c799e80a95ull, 0xb648e4130edfec03ull, 0x52e6d17c6ae237afull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kMpi, kKv32, 16, Abl::kNone,
     0x41538ff35c30cda4ull, 0xa9276b3e52399f74ull, 0x25e6c9b0b935d1c4ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kShmem, kU32, 1, Abl::kNone,
     0x417ff149cba41a46ull, 0xbe11f5999e685bd6ull, 0x7cd7e45990c59192ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kShmem, kU32, 6, Abl::kNone,
     0x4164183edd9945a9ull, 0x6d5ee5ac416745b8ull, 0xa1dff7a0a4a6cad7ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kShmem, kU32, 16, Abl::kNone,
     0x4152951846096b2eull, 0x3c6e9b99ff53a75aull, 0x246231d880add048ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kShmem, kKv32, 1, Abl::kNone,
     0x417ff149cba41a46ull, 0xbe11f5999e685bd6ull, 0x7cd7e45990c59192ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kShmem, kKv32, 6, Abl::kNone,
     0x4164183edd9945a9ull, 0x6d5ee5ac416745b8ull, 0xa1dff7a0a4a6cad7ull,
     0x7651c653ac879e85ull, 4},
    {kMerge, kShmem, kKv32, 16, Abl::kNone,
     0x4152951846096b2eull, 0x3c6e9b99ff53a75aull, 0x246231d880add048ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kU32, 16, Abl::kSgiMpi,
     0x4178e8d45b8e14d2ull, 0x860db8ac4da94216ull, 0xad76f11864cebf43ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kMpi, kU32, 16, Abl::kCoalescedMpi,
     0x41563fc72c4ec4efull, 0x520fe4f45407090cull, 0x7d9b623955a3942eull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kShmem, kU32, 16, Abl::kShmemPut,
     0x4157fae8ff2df2e6ull, 0x449fa25d2358959aull, 0x05789a00f4257c20ull,
     0x7651c653ac879e85ull, 4},
    {kRadix, kCcSas, kU32, 16, Abl::kDetectMaxKey,
     0x4148f182f834834cull, 0xef6740b86ab3ad69ull, 0x2c269d2f7ef98c83ull,
     0x7651c653ac879e85ull, 4},
    {kSample, kCcSas, kU32, 16, Abl::kSplitterGroup4,
     0x414732f2e638bf16ull, 0x68cd9e295c4d4c1eull, 0x26d9c70b3ca67240ull,
     0x7651c653ac879e85ull, 4},
};
// clang-format on

const char* abl_name(Abl a) {
  switch (a) {
    case Abl::kNone: return "kNone";
    case Abl::kSgiMpi: return "kSgiMpi";
    case Abl::kCoalescedMpi: return "kCoalescedMpi";
    case Abl::kShmemPut: return "kShmemPut";
    case Abl::kDetectMaxKey: return "kDetectMaxKey";
    case Abl::kSplitterGroup4: return "kSplitterGroup4";
  }
  return "?";
}

const char* algo_token(Algo a) {
  switch (a) {
    case Algo::kRadix: return "kRadix";
    case Algo::kSample: return "kSample";
    case Algo::kMsdRadix: return "kMsd";
    case Algo::kMergesort: return "kMerge";
  }
  return "?";
}

const char* model_token(Model m) {
  switch (m) {
    case Model::kCcSas: return "kCcSas";
    case Model::kCcSasNew: return "kCcSasNew";
    case Model::kMpi: return "kMpi";
    case Model::kShmem: return "kShmem";
  }
  return "?";
}

SortSpec spec_of(const Golden& g) {
  SortSpec spec;
  spec.algo = g.algo;
  spec.model = g.model;
  spec.record = g.record;
  spec.nprocs = g.nprocs;
  spec.n = kN;
  spec.dist = keys::Dist::kGauss;
  spec.seed = 1;
  switch (g.ablation) {
    case Abl::kNone: break;
    case Abl::kSgiMpi: spec.ablations.mpi_impl = msg::Impl::kStaged; break;
    case Abl::kCoalescedMpi: spec.ablations.mpi_chunk_messages = false; break;
    case Abl::kShmemPut: spec.ablations.shmem_use_put = true; break;
    case Abl::kDetectMaxKey:
      // Gauss keys span the full key width, so this row pins the cost of
      // the max-reduce collective rather than a shorter pass count.
      spec.ablations.detect_max_key = true;
      break;
    case Abl::kSplitterGroup4: spec.ablations.sample_group_size = 4; break;
  }
  return spec;
}

/// FNV-1a over 64-bit words.
struct Hasher {
  std::uint64_t h = 1469598103934665603ull;
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((w >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  }
  void real(double d) { word(std::bit_cast<std::uint64_t>(d)); }
  void breakdown(const sim::Breakdown& b) {
    real(b.busy_ns);
    real(b.lmem_ns);
    real(b.rmem_ns);
    real(b.sync_ns);
  }
  void text(const std::string& s) {
    for (const char c : s) word(static_cast<unsigned char>(c));
    word(0);
  }
};

Golden measure(const Golden& cell) {
  const SortResult res = run_sort(spec_of(cell));
  EXPECT_TRUE(res.verified);
  Golden g = cell;
  g.elapsed_bits = std::bit_cast<std::uint64_t>(res.elapsed_ns);
  Hasher procs;
  for (const sim::Breakdown& b : res.per_proc) procs.breakdown(b);
  g.per_proc_hash = procs.h;
  Hasher phases;
  for (const auto& [name, b] : res.phases) {
    phases.text(name);
    phases.breakdown(b);
  }
  g.phases_hash = phases.h;
  g.run_hash = res.run_hash;
  g.passes = res.passes;
  return g;
}

std::string row_of(const Golden& g) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    {%s, %s, %s, %d, Abl::%s,\n     0x%016llxull, "
                "0x%016llxull, 0x%016llxull,\n     0x%016llxull, %d},",
                algo_token(g.algo), model_token(g.model),
                g.record == kU32 ? "kU32" : "kKv32", g.nprocs,
                abl_name(g.ablation),
                static_cast<unsigned long long>(g.elapsed_bits),
                static_cast<unsigned long long>(g.per_proc_hash),
                static_cast<unsigned long long>(g.phases_hash),
                static_cast<unsigned long long>(g.run_hash), g.passes);
  return buf;
}

/// Every row the table must hold, in table order: the feasible cells
/// crossed with both record types and three team sizes, then one cell per
/// ablation.
std::vector<Golden> expected_cells() {
  std::vector<Golden> cells;
  for (const auto& a : kAlgoNames) {
    for (const auto& m : kModelNames) {
      if (!algo_supports_model(a.value, m.value)) continue;
      for (const RecordType rec : {kU32, kKv32}) {
        for (const int p : {1, 6, 16}) {
          cells.push_back(Golden{a.value, m.value, rec, p, Abl::kNone, 0, 0,
                                 0, 0, 0});
        }
      }
    }
  }
  const auto abl = [&](Algo a, Model m, Abl which) {
    cells.push_back(Golden{a, m, kU32, 16, which, 0, 0, 0, 0, 0});
  };
  abl(kRadix, kMpi, Abl::kSgiMpi);
  abl(kRadix, kMpi, Abl::kCoalescedMpi);
  abl(kRadix, kShmem, Abl::kShmemPut);
  abl(kRadix, kCcSas, Abl::kDetectMaxKey);
  abl(kSample, kCcSas, Abl::kSplitterGroup4);
  return cells;
}

TEST(SortGolden, TableCoversEveryFeasibleCellAndAblation) {
  const std::vector<Golden> cells = expected_cells();
  EXPECT_EQ(cells.size(), 13u * 2u * 3u + 5u);
  ASSERT_EQ(std::size(kGolden), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(kGolden[i].algo, cells[i].algo) << i;
    EXPECT_EQ(kGolden[i].model, cells[i].model) << i;
    EXPECT_EQ(kGolden[i].record, cells[i].record) << i;
    EXPECT_EQ(kGolden[i].nprocs, cells[i].nprocs) << i;
    EXPECT_EQ(kGolden[i].ablation, cells[i].ablation) << i;
  }
}

TEST(SortGolden, EveryCellMatchesItsPinnedRow) {
  std::string reprint;
  for (const Golden& cell : expected_cells()) {
    const Golden got = measure(cell);
    const Golden* want = nullptr;
    for (const Golden& g : kGolden) {
      if (g.algo == cell.algo && g.model == cell.model &&
          g.record == cell.record && g.nprocs == cell.nprocs &&
          g.ablation == cell.ablation) {
        want = &g;
      }
    }
    const bool same = want != nullptr &&
                      want->elapsed_bits == got.elapsed_bits &&
                      want->per_proc_hash == got.per_proc_hash &&
                      want->phases_hash == got.phases_hash &&
                      want->run_hash == got.run_hash &&
                      want->passes == got.passes;
    EXPECT_TRUE(same) << row_of(got);
    reprint += row_of(got) + "\n";
  }
  if (HasFailure()) ADD_FAILURE() << "table as computed:\n" << reprint;
}

}  // namespace
}  // namespace dsm::sort
