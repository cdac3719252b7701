#pragma once

#include <climits>
#include <cstdint>
#include <new>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "ff/nonbonded.hpp"

namespace scalemd {

// ---------------------------------------------------------------------------
// Tiled non-bonded kernel: GROMACS-style cluster pairs (Pall et al. 2015).
//
// The scalar kernel in ff/nonbonded.cpp walks AoS Vec3 arrays and performs
// two binary searches per in-cutoff pair to classify exclusions. Here each
// set's atoms (a patch of the parallel runtime, a cell of the sequential
// engine) are laid out once per force evaluation in a spatial order: xy
// columns, each sorted in z and padded to a multiple of 8 slots. Every 8
// consecutive slots form a j-cluster with a bounding box. A call groups its
// own outer rows into 4-atom i-clusters, prunes the partner's j-clusters by
// bounding box (8 boxes per vector test), and evaluates each surviving
// cluster pair as one 4x8 block: i-forces stay in registers across the
// j-loop, j-forces are reduced once per block, and the cutoff, exclusion and
// row-order conditions are lane masks. No pair list is stored and no pair is
// gathered or compacted.
//
// Every entry point matches its scalar counterpart's forces and energies to
// summation-order rounding and reproduces WorkCounters *exactly* — the DES
// cost model and grain-size histograms depend on those counts. Every sum
// folds in a fixed order, so a result depends only on the set's atoms, their
// positions and the row range: the same bits on every backend, and (the
// block is written with AVX-512 intrinsics and as a portable lane loop that
// does the same IEEE operations lane by lane) on native and portable builds.
// ---------------------------------------------------------------------------

/// Allocator for the kernel's slot arrays: 64-byte aligned, so each
/// j-cluster's 8 doubles fill one cache line.
template <class T>
struct CacheAligned {
  using value_type = T;
  CacheAligned() = default;
  template <class U>
  CacheAligned(const CacheAligned<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, std::align_val_t{64}); }
  bool operator==(const CacheAligned&) const { return true; }
};
template <class T>
using AlignedVector = std::vector<T, CacheAligned<T>>;

/// Slots per j-cluster: one AVX-512 vector of doubles.
inline constexpr int kClusterJ = 8;
/// Atoms per i-cluster: the rows of one block.
inline constexpr int kClusterI = 4;

/// Read-only view of one set in the cluster layout: what the kernel reads.
/// Slot arrays hold `slots` entries (a multiple of kClusterJ); padding slots
/// have row kPadRow, charge 0 and LJ type 0.
struct TileView {
  static constexpr int kPadRow = INT_MIN;
  std::size_t n = 0;      ///< atoms (rows, in set order)
  std::size_t slots = 0;  ///< padded slots
  const double* x = nullptr;  ///< per slot
  const double* y = nullptr;
  const double* z = nullptr;
  const double* q = nullptr;
  const int* type = nullptr;
  const int* row = nullptr;   ///< slot -> row (kPadRow for padding)
  const int* col = nullptr;   ///< j-cluster -> its xy column
  const int* slot = nullptr;  ///< row -> slot
  /// row -> global atom id g when every exclusion and 1-4 partner of the
  /// atom sits in this set (a call against another set marks no bit for
  /// it), else ~g.
  const int* global = nullptr;
  /// Per j-cluster bounding boxes, six arrays of `boxes` entries: x lo, x hi,
  /// y lo, y hi, z lo, z hi. `boxes` rounds the cluster count up to a
  /// multiple of 8 with empty boxes far away, so the box test needs no tail.
  const double* bb = nullptr;
  std::size_t boxes = 0;
};

/// Where an atom currently sits: (set id, index within that set). The tile
/// entry points map exclusion partners to tile slots through a table of
/// these indexed by global atom id (patches or cells are the sets).
using AtomSlot = std::pair<int, int>;

/// One set's atoms in the cluster layout. lay_out() rebuilds it from the
/// set's atoms and positions (storage is reused across calls).
class ClusterTile {
 public:
  /// Lays out atoms `atoms` (global ids, set order) at positions `pos`
  /// (parallel to atoms) as set `set` of the AtomSlot table `where`.
  /// Deterministic: xy columns, atoms sorted by (column, z, row).
  void lay_out(const NonbondedContext& ctx, std::span<const int> atoms,
               std::span<const Vec3> pos, int set, std::span<const AtomSlot> where);
  TileView view() const;

 private:
  std::size_t n_ = 0, slots_ = 0, boxes_ = 0;
  /// x, y, z, q by slot, then the boxes' six bound arrays.
  AlignedVector<double> fp_;
  /// type and row by slot, col by cluster, then slot and global by row.
  AlignedVector<int> ints_;
};

/// The atoms of one force evaluation laid out set after set (cells of the
/// sequential engine, patches of the Workload passes), the way the parallel
/// runtime lays out its patches: AoS positions (the scalar kernels' input),
/// one ClusterTile per set (the tile entry points'), and the AtomSlot table.
/// Rebuilt with clear()/add()/gather_tiles() once per evaluation; storage is
/// reused.
class SetLayout {
 public:
  /// Starts an empty layout (no sets, no tiles) over a system of
  /// `atom_count` atoms.
  void clear(int atom_count);
  /// Appends the next set: global ids `atoms`, positions read from `pos`
  /// (indexed by global id).
  void add(std::span<const int> atoms, std::span<const Vec3> pos);
  /// Lays out the cluster tile of every set added so far.
  void gather_tiles(const NonbondedContext& ctx);

  int sets() const { return static_cast<int>(off_.size()) - 1; }
  std::size_t atom_count() const { return atoms_.size(); }
  /// Row of set s's first atom; sets are contiguous in add() order.
  std::size_t offset(int s) const { return off_[static_cast<std::size_t>(s)]; }
  std::size_t size(int s) const { return offset(s + 1) - offset(s); }
  std::span<const int> atoms() const { return atoms_; }
  std::span<const int> atoms(int s) const { return {atoms_.data() + offset(s), size(s)}; }
  std::span<const Vec3> pos(int s) const { return {pos_.data() + offset(s), size(s)}; }
  /// Set s's tile; empty until gather_tiles() lays it out.
  TileView tile(int s) const {
    const auto k = static_cast<std::size_t>(s);
    return k < tiled_ ? tiles_[k].view() : TileView{};
  }
  /// Global atom id -> (set, index in set).
  std::span<const AtomSlot> where() const { return where_; }

 private:
  std::vector<std::size_t> off_{0};
  std::vector<int> atoms_;
  std::vector<Vec3> pos_;
  std::vector<AtomSlot> where_;
  std::vector<ClusterTile> tiles_;
  std::size_t tiled_ = 0;  ///< sets whose tiles are laid out
};

/// Per-row scratch for the Verlet path's filtered two-pass loop: full-width
/// distance buffers plus packed SoA arrays holding only the pairs that
/// survive the cutoff/exclusion filter (the expensive math runs on those
/// alone, as a branch-free elementwise map the compiler vectorizes).
struct RowScratch {
  std::vector<double> rr;  // full partner width: squared distances
  std::vector<int> pj;     // packed: surviving partner index
  std::vector<double> pdx, pdy, pdz, pr2, pqj, plja, pljb, pscale;
  std::vector<double> pfx, pfy, pfz, pelj, peel;  // packed outputs

  void ensure(std::size_t n);
};

/// Which body evaluates the 4x8 blocks. Both do the same IEEE operations in
/// the same order, so they write the same bits. The AVX-512 body is built
/// only where the build targets AVX-512; elsewhere kAvx512 runs the portable
/// body too (native_block_path() says which one the build runs).
enum class BlockPath { kAvx512, kPortable };

/// kAvx512 when this build has the intrinsic body, else kPortable.
BlockPath native_block_path();
/// "avx512" or "portable".
const char* block_path_name(BlockPath path);

/// Reusable scratch for one evaluation thread: the current call's
/// i-clusters, exclusion masks and slot-indexed force accumulators, plus the
/// Verlet path's row scratch. Create one per thread and reuse it across calls
/// to amortize allocations.
struct TileScratch {
  /// The block body the tile entry points run; tests set kPortable to hold
  /// the intrinsic body against the lane loop.
  BlockPath path = native_block_path();
  /// 4x8 blocks evaluated so far (diagnostics: bench_micro_forces --compare).
  std::uint64_t blocks = 0;

  // The current call's i-clusters: kClusterI lanes each, then six box
  // bounds per cluster.
  std::vector<double> ix, iy, iz, iqc, ibb;
  std::vector<int> itype, irow, islot;
  /// Per partner j-cluster: full-exclusion bits (low 32) and 1-4 bits (high
  /// 32) of the current i-cluster, bit lane_i * 8 + lane_j.
  std::vector<std::uint64_t> emask;
  std::vector<int> ewords;  ///< the emask words the current i-cluster set
  std::vector<int> jlist;   ///< the j-clusters one i-cluster meets
  std::vector<double> lj8;  ///< 8x8 LJ A and B tables (at most 8 types)
  AlignedVector<double> fax, fay, faz, fbx, fby, fbz;  ///< forces by slot
  RowScratch row;
};

// --- the tiled entry points: tiles laid out by the caller -------------------

/// The tiled counterpart of nonbonded_self_range: rows [i_begin, i_end) of
/// `a` against a's later rows (pair (i, j) with row j > row i). Exclusion
/// partners are located through `where` (a_set names `a`'s set), and forces
/// are added into `f` (indexed by row).
EnergyTerms nonbonded_self_tile_range(const NonbondedContext& ctx, const TileView& a,
                                      int a_set, std::span<const AtomSlot> where,
                                      std::span<Vec3> f, std::size_t i_begin,
                                      std::size_t i_end, WorkCounters& work,
                                      TileScratch& ws);

/// The tiled counterpart of nonbonded_ab_range. Forces are added into f_a
/// and f_b (indexed by row).
EnergyTerms nonbonded_ab_tile_range(const NonbondedContext& ctx, const TileView& a,
                                    std::span<Vec3> f_a, const TileView& b, int b_set,
                                    std::span<const AtomSlot> where,
                                    std::span<Vec3> f_b, std::size_t a_begin,
                                    std::size_t a_end, WorkCounters& work,
                                    TileScratch& ws);

// --- pairlist (Verlet) path -------------------------------------------------

/// Evaluates atom `gi` against its cached neighbor list. `codes` classifies
/// each neighbor (0 = plain, 1 = fully excluded, 2 = 1-4 scaled) and is
/// precomputed once per pairlist build — see ExclusionKind for the values.
/// Neighbor coordinates are gathered into SoA scratch and the inner loop is
/// the same branch-free body as the tile kernel. Forces accumulate into the
/// global-indexed span `f`.
EnergyTerms nonbonded_neighbors_tiled(const NonbondedContext& ctx, int gi,
                                      std::span<const Vec3> pos,
                                      std::span<const int> nbrs,
                                      std::span<const std::uint8_t> codes,
                                      std::span<Vec3> f, WorkCounters& work,
                                      RowScratch& rs);

// --- option helpers ---------------------------------------------------------

/// "scalar", "tiled" or "tiled+threads".
const char* kernel_name(NonbondedKernel k);

/// Parses a kernel name (accepts "tiled+threads" and "tiled-threads").
/// Returns false and leaves `out` untouched on unknown names.
bool kernel_from_name(std::string_view name, NonbondedKernel& out);

}  // namespace scalemd
