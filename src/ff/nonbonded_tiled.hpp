#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "ff/nonbonded.hpp"

namespace scalemd {

// ---------------------------------------------------------------------------
// Tiled SoA non-bonded kernel.
//
// The scalar kernel in ff/nonbonded.cpp walks AoS Vec3 arrays and performs
// two binary searches per in-cutoff pair to classify exclusions. This file
// implements the layout GROMACS-style cluster kernels use instead: positions,
// charges and LJ parameters sit in contiguous per-set SoA tiles, gathered by
// the caller once per force evaluation (the parallel runtime once per patch
// per force round), exclusion/1-4 classification is precomputed per call
// into per-row bitmasks, and the i x j inner loop is branch-free (no early
// exits; excluded and out-of-cutoff pairs are multiplied by zero) so the
// compiler can vectorize it. Forces accumulate into local SoA buffers and
// are scattered back at the end.
//
// Every entry point matches its scalar counterpart's forces and energies to
// summation-order rounding and reproduces WorkCounters *exactly* — the DES
// cost model and grain-size histograms depend on those counts.
// ---------------------------------------------------------------------------

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
/// atom id. Callers keep one for all atoms of an evaluation, set after set,
/// and hand each kernel call the views of the sets it reads.
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
  /// Rows [off, off + rows); valid until the next resize.
  TileView view(std::size_t off, std::size_t rows) const;
};

/// Where an atom currently sits: (set id, index within that set). The tile
/// entry points map exclusion partners to tile bits through a table of these
/// indexed by global atom id (patches or cells are the sets).
using AtomSlot = std::pair<int, int>;

/// The atoms of one force evaluation laid out set after set (cells of the
/// sequential engine, patches of the Workload passes), the way the parallel
/// runtime lays out its patches: AoS positions (the scalar kernels' input),
/// SoA tiles (the tile entry points'), and the AtomSlot table. Rebuilt with
/// clear()/add()/gather_tiles() once per evaluation; storage is reused.
class SetLayout {
 public:
  /// Starts an empty layout (no sets, no tiles) over a system of
  /// `atom_count` atoms.
  void clear(int atom_count);
  /// Appends the next set: global ids `atoms`, positions read from `pos`
  /// (indexed by global id).
  void add(std::span<const int> atoms, std::span<const Vec3> pos);
  /// Fills the SoA tiles for every set added so far.
  void gather_tiles(const NonbondedContext& ctx);

  int sets() const { return static_cast<int>(off_.size()) - 1; }
  std::size_t atom_count() const { return atoms_.size(); }
  /// Row of set s's first atom; sets are contiguous in add() order.
  std::size_t offset(int s) const { return off_[static_cast<std::size_t>(s)]; }
  std::size_t size(int s) const { return offset(s + 1) - offset(s); }
  std::span<const int> atoms() const { return atoms_; }
  std::span<const int> atoms(int s) const { return {atoms_.data() + offset(s), size(s)}; }
  std::span<const Vec3> pos(int s) const { return {pos_.data() + offset(s), size(s)}; }
  /// Set s's tile rows; empty until gather_tiles() fills them.
  TileView tile(int s) const {
    return tiles_.n == 0 ? TileView{} : tiles_.view(offset(s), size(s));
  }
  /// Global atom id -> (set, index in set).
  std::span<const AtomSlot> where() const { return where_; }

 private:
  std::vector<std::size_t> off_{0};
  std::vector<int> atoms_;
  std::vector<Vec3> pos_;
  std::vector<AtomSlot> where_;
  TileSoA tiles_;
};

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

/// Tile views plus per-row exclusion bitmasks for one kernel invocation:
/// either a self set (all i < j pairs) or an ordered (a, b) set pair. Bit j
/// of full/mod row i marks atom pair (i, j) as fully excluded / 1-4 scaled.
/// Masks are built only for the rows the invocation evaluates, replacing the
/// scalar kernel's per-pair binary searches with a branch-free mask lookup.
class TilePair {
 public:
  /// Reads tiles gathered by the caller (nothing is copied; the views must
  /// stay valid across every eval_rows call) and builds masks for rows
  /// [i0, i1). `b` null means a self set. Partner g is local bit
  /// where[g].second iff where[g].first == b_set.
  void attach(const NonbondedContext& ctx, const TileView& a, const TileView* b,
              int b_set, std::span<const AtomSlot> where, std::size_t i0,
              std::size_t i1);

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
  TileView a_, b_;  ///< b_ == a_ for a self set
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

// --- the tiled entry points: tiles gathered by the caller -------------------

/// The tiled counterpart of nonbonded_self_range: rows [i_begin, i_end) of
/// `a` against a's later atoms. Exclusion partners are located through
/// `where` (see TilePair::attach; a_set names `a`'s set), masks cover only
/// the evaluated rows, and forces are added into `f` for the rows the call
/// touches, [i_begin, n).
EnergyTerms nonbonded_self_tile_range(const NonbondedContext& ctx, const TileView& a,
                                      int a_set, std::span<const AtomSlot> where,
                                      std::span<Vec3> f, std::size_t i_begin,
                                      std::size_t i_end, WorkCounters& work,
                                      TileScratch& ws);

/// The tiled counterpart of nonbonded_ab_range. Forces are added into f_a
/// for rows [a_begin, a_end) and into all of f_b.
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
