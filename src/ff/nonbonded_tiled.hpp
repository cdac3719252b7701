#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "ff/nonbonded.hpp"
#include "util/thread_pool.hpp"

namespace scalemd {

// ---------------------------------------------------------------------------
// Tiled SoA non-bonded kernel.
//
// The scalar kernel in ff/nonbonded.cpp walks AoS Vec3 arrays and performs
// two binary searches per in-cutoff pair to classify exclusions. This file
// implements the layout GROMACS-style cluster kernels use instead: positions,
// charges and LJ parameters are gathered into contiguous per-set SoA tiles
// (once per invocation, or in the parallel runtime once per patch per force
// round), exclusion/1-4 classification is precomputed per invocation into
// per-row bitmasks, and the i x j inner loop is branch-free
// (no early exits; excluded and out-of-cutoff pairs are multiplied by zero)
// so the compiler can vectorize it. Forces accumulate into local SoA buffers
// and are scattered back at the end.
//
// Every entry point matches its scalar counterpart's forces and energies to
// summation-order rounding and reproduces WorkCounters *exactly* — the DES
// cost model and grain-size histograms depend on those counts.
// ---------------------------------------------------------------------------

/// Epoch-stamped global->local index map used while translating per-atom
/// exclusion lists (global atom ids) into tile-local bit positions. Clearing
/// is O(1): bump the epoch instead of wiping the arrays.
class GlobalLocalMap {
 public:
  /// Starts a new mapping over `atom_count` global ids.
  void begin(int atom_count);
  void set(int global, int local) {
    const auto g = static_cast<std::size_t>(global);
    loc_[g] = local;
    stamp_[g] = epoch_;
  }
  /// Local index of `global` in the current epoch, or -1.
  int find(int global) const {
    const auto g = static_cast<std::size_t>(global);
    return stamp_[g] == epoch_ ? loc_[g] : -1;
  }

 private:
  std::vector<int> loc_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Read-only view of one atom set in SoA form: what the kernel reads.
struct TileView {
  std::size_t n = 0;
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* q = nullptr;
  const int* type = nullptr;
  const int* global = nullptr;  ///< global atom id of each row
};

/// SoA storage for gathered atoms: coordinates, charge, LJ type and global
/// atom id. The gather-based entry points below fill one per call; the
/// parallel runtime keeps one for all atoms, each patch's slice regathered
/// once per force round and shared by every compute reading the patch.
struct TileSoA {
  std::size_t n = 0;
  std::vector<double> x, y, z, q;
  std::vector<int> type;
  std::vector<int> global;

  /// Sizes the storage for n rows (contents unset until gathered).
  void resize(std::size_t rows);
  /// Gathers atoms `idx` at positions `pos` into rows [off, off + idx.size()).
  void gather_at(std::size_t off, const NonbondedContext& ctx,
                 std::span<const int> idx, std::span<const Vec3> pos);
  /// resize(idx.size()), then gather_at(0, ...).
  void gather(const NonbondedContext& ctx, std::span<const int> idx,
              std::span<const Vec3> pos);
  /// Rows [off, off + rows); valid until the next resize.
  TileView view(std::size_t off, std::size_t rows) const;
  TileView view() const { return view(0, n); }
};

/// Where an atom currently sits: (set id, index within that set). The
/// runtime-path entry points map exclusion partners to tile bits through a
/// table of these indexed by global atom id (ParallelSim's atom location
/// table, with patches as the sets).
using AtomSlot = std::pair<int, int>;

/// Per-row scratch for the filtered two-pass inner loop: full-width distance
/// buffers plus packed SoA arrays holding only the pairs that survive the
/// cutoff/exclusion filter (the expensive math runs on those alone, as a
/// branch-free elementwise map the compiler vectorizes).
struct RowScratch {
  std::vector<double> rr;  // full partner width: squared distances
  std::vector<int> pj;     // packed: surviving partner index
  std::vector<double> pdx, pdy, pdz, pr2, pqj, plja, pljb, pscale;
  std::vector<double> pfx, pfy, pfz, pelj, peel;  // packed outputs

  void ensure(std::size_t n);
};

/// Tiles plus per-row exclusion bitmasks for one kernel invocation: either a
/// self set (all i < j pairs) or an ordered (a, b) set pair. Bit j of
/// full/mod row i marks atom pair (i, j) as fully excluded / 1-4 scaled.
/// Masks are built only for the rows the invocation evaluates, replacing the
/// scalar kernel's per-pair binary searches with a branch-free mask lookup.
class TilePair {
 public:
  /// Gather path: copies the sets into owned tiles and builds masks for rows
  /// [i0, i1), translating exclusion partners to local bits through `map`.
  void build_self(const NonbondedContext& ctx, std::span<const int> idx,
                  std::span<const Vec3> pos, GlobalLocalMap& map, std::size_t i0,
                  std::size_t i1);
  void build_ab(const NonbondedContext& ctx, std::span<const int> idx_a,
                std::span<const Vec3> pos_a, std::span<const int> idx_b,
                std::span<const Vec3> pos_b, GlobalLocalMap& map, std::size_t i0,
                std::size_t i1);
  /// Runtime path: reads tiles gathered by the caller (nothing is copied;
  /// the views must stay valid across every eval_rows call) and builds
  /// masks for rows [i0, i1). `b` null means a self set. Partner g is local
  /// bit where[g].second iff where[g].first == b_set.
  void attach(const NonbondedContext& ctx, const TileView& a, const TileView* b,
              int b_set, std::span<const AtomSlot> where, std::size_t i0,
              std::size_t i1);

  bool self() const { return self_; }
  const TileView& a() const { return a_; }
  const TileView& b() const { return b_; }

  /// Evaluates outer rows [i0, i1) — inside the masked rows — against the
  /// partner set (j > i for self pairs, the full b set otherwise). Forces
  /// accumulate into the SoA buffers fa*/fb* (pass the same pointers for
  /// both in self mode); energy is returned and work counters are updated
  /// to match the scalar kernel exactly.
  EnergyTerms eval_rows(const NonbondedContext& ctx, std::size_t i0, std::size_t i1,
                        double* fax, double* fay, double* faz, double* fbx,
                        double* fby, double* fbz, RowScratch& rs,
                        WorkCounters& work) const;

 private:
  /// `find(g)` gives the partner-set bit of global atom g, or -1.
  template <class Find>
  void build_masks(const NonbondedContext& ctx, std::size_t i0, std::size_t i1,
                   const Find& find);

  TileSoA own_a_, own_b_;  ///< gather path storage
  TileView a_, b_;          ///< b_ == a_ for a self set
  bool self_ = false;
  std::size_t row0_ = 0, row1_ = 0;  ///< masked rows [row0_, row1_)
  std::size_t words_ = 0;            ///< 64-bit words per mask row
  std::vector<std::uint64_t> full_, mod_;
  std::vector<std::uint8_t> row_masked_;  ///< row has any exclusion bits
};

/// Reusable scratch for one evaluation thread: the mask tiles, row scratch
/// and SoA force accumulators. Create one per thread and reuse it across
/// calls to amortize allocations.
struct TileScratch {
  TilePair pair;
  RowScratch row;
  std::vector<double> fax, fay, faz, fbx, fby, fbz;
};

/// TileScratch plus the global->local map the gather-based entry points use
/// to translate exclusion lists; the map is sized by the system's atom
/// count, so keep one per thread, not one per call site.
struct TiledWorkspace : TileScratch {
  GlobalLocalMap map;
};

/// Per-pool-worker scratch for the multithreaded entry points. The shared
/// TilePair is built once per call; each worker accumulates forces into its
/// own SoA buffers, reduced in worker order afterwards (deterministic for a
/// fixed thread count).
struct TiledThreadWorkspace {
  TiledWorkspace shared;
  struct Worker {
    RowScratch row;
    std::vector<double> fax, fay, faz, fbx, fby, fbz;
    WorkCounters work;
  };
  std::vector<Worker> workers;
  std::vector<EnergyTerms> chunk_energy;
};

// --- drop-in tiled counterparts of the scalar entry points -----------------

EnergyTerms nonbonded_self_tiled(const NonbondedContext& ctx, std::span<const int> idx,
                                 std::span<const Vec3> pos, std::span<Vec3> f,
                                 WorkCounters& work, TiledWorkspace& ws);

EnergyTerms nonbonded_self_range_tiled(const NonbondedContext& ctx,
                                       std::span<const int> idx,
                                       std::span<const Vec3> pos, std::span<Vec3> f,
                                       std::size_t i_begin, std::size_t i_end,
                                       WorkCounters& work, TiledWorkspace& ws);

EnergyTerms nonbonded_ab_tiled(const NonbondedContext& ctx, std::span<const int> idx_a,
                               std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                               std::span<const int> idx_b,
                               std::span<const Vec3> pos_b, std::span<Vec3> f_b,
                               WorkCounters& work, TiledWorkspace& ws);

EnergyTerms nonbonded_ab_range_tiled(const NonbondedContext& ctx,
                                     std::span<const int> idx_a,
                                     std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                                     std::span<const int> idx_b,
                                     std::span<const Vec3> pos_b, std::span<Vec3> f_b,
                                     std::size_t a_begin, std::size_t a_end,
                                     WorkCounters& work, TiledWorkspace& ws);

// --- runtime path: tiles gathered once per force round ---------------------

/// As nonbonded_self_range_tiled, on a tile the caller gathered (rows
/// [i_begin, i_end) of `a` against a's later atoms). Exclusion partners are
/// located through `where` (see TilePair::attach; a_set names `a`'s set),
/// masks cover only the evaluated rows, and forces are added into `f` for
/// the rows the call touches, [i_begin, n). Bitwise identical to
/// nonbonded_self_range_tiled on the same atoms.
EnergyTerms nonbonded_self_tile_range(const NonbondedContext& ctx, const TileView& a,
                                      int a_set, std::span<const AtomSlot> where,
                                      std::span<Vec3> f, std::size_t i_begin,
                                      std::size_t i_end, WorkCounters& work,
                                      TileScratch& ws);

/// As nonbonded_ab_range_tiled, on tiles the caller gathered. Forces are
/// added into f_a for rows [a_begin, a_end) and into all of f_b. Bitwise
/// identical to nonbonded_ab_range_tiled on the same atoms.
EnergyTerms nonbonded_ab_tile_range(const NonbondedContext& ctx, const TileView& a,
                                    std::span<Vec3> f_a, const TileView& b, int b_set,
                                    std::span<const AtomSlot> where,
                                    std::span<Vec3> f_b, std::size_t a_begin,
                                    std::size_t a_end, WorkCounters& work,
                                    TileScratch& ws);

// --- thread-pool variants: outer rows chunked across the pool --------------

EnergyTerms nonbonded_self_range_tiled_mt(const NonbondedContext& ctx,
                                          std::span<const int> idx,
                                          std::span<const Vec3> pos, std::span<Vec3> f,
                                          std::size_t i_begin, std::size_t i_end,
                                          WorkCounters& work, TiledThreadWorkspace& ws,
                                          ThreadPool& pool);

EnergyTerms nonbonded_ab_range_tiled_mt(const NonbondedContext& ctx,
                                        std::span<const int> idx_a,
                                        std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                                        std::span<const int> idx_b,
                                        std::span<const Vec3> pos_b, std::span<Vec3> f_b,
                                        std::size_t a_begin, std::size_t a_end,
                                        WorkCounters& work, TiledThreadWorkspace& ws,
                                        ThreadPool& pool);

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
                                      TiledWorkspace& ws);

// --- option helpers ---------------------------------------------------------

/// "scalar", "tiled" or "tiled+threads".
const char* kernel_name(NonbondedKernel k);

/// Parses a kernel name (accepts "tiled+threads" and "tiled-threads").
/// Returns false and leaves `out` untouched on unknown names.
bool kernel_from_name(std::string_view name, NonbondedKernel& out);

}  // namespace scalemd
