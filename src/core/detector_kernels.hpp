// Vectorized detector kernels over event columns (DESIGN.md §11).
//
// Every kernel is a flat scan over raw column data from a
// runtime::ColumnStore: type derivation, same-type phases, maximum size,
// op counts, end-traffic window counts and position-regularity streaks —
// the slice step of the per-instance fold (instance_fold.hpp).  Each has
// a branch-light scalar core (the reference semantics, shared with the
// fold's per-event step via the helpers in instance_stats.hpp) and an
// optional AVX2 path selected by runtime dispatch — the scalar
// fallback is mandatory and always compiled, so every kernel returns the
// same bits at every dispatch level.  All outputs are integers, so SIMD
// lane order cannot perturb verdicts.
//
// Dispatch policy: AVX2 when the CPU has it, else scalar, decided once per
// process from CPUID (non-x86 builds compile scalar only), demoted by the
// DSSPY_FORCE_SCALAR=1 environment variable, and pinned per-test with
// force_simd_level().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/access_type.hpp"
#include "core/column_analysis.hpp"
#include "core/instance_stats.hpp"
#include "runtime/op.hpp"

namespace dsspy::core::kernels {

/// Instruction-set tier a kernel call may use.
enum class SimdLevel : std::uint8_t { Scalar = 0, Avx2 = 1 };

[[nodiscard]] std::string_view simd_level_name(SimdLevel level) noexcept;

/// The tier dispatch resolved to: the best level the CPU supports, demoted
/// to Scalar when DSSPY_FORCE_SCALAR=1 is set.
[[nodiscard]] SimdLevel active_simd_level() noexcept;

/// Test hook: pin dispatch to `level` (clamped to what the CPU supports).
void force_simd_level(SimdLevel level) noexcept;

/// Test hook: return to environment/CPUID-based dispatch.
void reset_forced_simd_level() noexcept;

// ---- whole-column folds -------------------------------------------------
// All kernels read exactly `n` rows starting at the given pointers.

/// Map raw op kinds to derived access types (derive_access_type as a
/// 16-entry table lookup; AVX2 uses pshufb).  `ops` values must be
/// valid OpKinds (< kOpKindCount), which decode and capture guarantee.
void derive_types(const std::uint8_t* ops, std::size_t n,
                  std::uint8_t* types);

/// Maximum of the size column; 0 when n == 0.
[[nodiscard]] std::uint32_t max_size_u32(const std::uint32_t* sizes,
                                         std::size_t n);

/// Number of rows whose raw op equals `op`.
[[nodiscard]] std::size_t count_op(const std::uint8_t* ops, std::size_t n,
                                   runtime::OpKind op);

/// Fold all rows into both end-traffic accumulators in one pass:
/// `iq` with window `iq_window`, `edge` with window 1.  Bit-identical to
/// calling accumulate_end_traffic per event.
void end_traffic(const std::uint8_t* types, const std::int64_t* positions,
                 const std::uint32_t* sizes, std::size_t n,
                 std::size_t iq_window, EndTraffic& iq, EndTraffic& edge);

/// end_traffic over a constant-type span: all `n` rows share derived type
/// `type`, so the per-row type test is hoisted out of the loop and only the
/// two counters that type can touch are accumulated.  Types other than
/// Insert/Delete/Read/Write contribute nothing (callers iterating phases
/// can skip those spans outright).  Bit-identical to end_traffic over a
/// column filled with `type`.
void end_traffic_span(std::uint8_t type, const std::int64_t* positions,
                      const std::uint32_t* sizes, std::size_t n,
                      std::size_t iq_window, EndTraffic& iq,
                      EndTraffic& edge);

/// Maximal same-type phases over the type column, into `phases` (cleared
/// first, its capacity reused).
void phases_from_types(const std::uint8_t* types, std::size_t n,
                       PhaseList& phases);

/// Row offsets (relative to `types`) whose derived type equals `type`,
/// appended to `out` in ascending order.
void collect_type_indices(const std::uint8_t* types, std::size_t n,
                          std::uint8_t type, std::vector<std::uint32_t>& out);

// ---- streak scans (pattern-detector fast path) --------------------------
// Each returns how many leading rows of the n-row window satisfy the
// predicate; the pattern machine applies the whole streak as one bulk run
// extension (pattern_machine.hpp).

/// Rows continuing a monotone read/write run: types[i] == type,
/// threads[i] == tid, and positions stepping by `dir` (+1/-1) from
/// `prev_pos`.  The scan stops before the expected position would go
/// negative (a negative read/write position ends a run).
[[nodiscard]] std::size_t monotone_streak(const std::uint8_t* types,
                                          const std::int64_t* positions,
                                          const std::uint16_t* threads,
                                          std::size_t n, std::uint8_t type,
                                          std::uint16_t tid,
                                          std::int64_t prev_pos,
                                          std::int64_t dir);

/// Position anchor of an absorbing insert/delete run state.
enum class EndAnchor : std::uint8_t {
    InsertBack,  ///< position == size - 1 (size recorded after the insert)
    DeleteBack,  ///< position == size (size recorded after the removal)
    Front,       ///< position == 0
};

/// Rows continuing an end-anchored insert/delete run: types[i] == type,
/// threads[i] == tid, and the anchor predicate holds.
[[nodiscard]] std::size_t end_anchor_streak(const std::uint8_t* types,
                                            const std::int64_t* positions,
                                            const std::uint32_t* sizes,
                                            const std::uint16_t* threads,
                                            std::size_t n, std::uint8_t type,
                                            std::uint16_t tid,
                                            EndAnchor anchor);

/// Rows on thread `tid` that can neither open nor extend a run (derived
/// category None: Search/Clear/Copy/Reverse/Sort, or Read/Write with a
/// negative position).  When the thread's run is already closed these rows
/// are no-ops and the detector skips the whole streak.
[[nodiscard]] std::size_t flushable_streak(const std::uint8_t* types,
                                           const std::int64_t* positions,
                                           const std::uint16_t* threads,
                                           std::size_t n, std::uint16_t tid);

}  // namespace dsspy::core::kernels
