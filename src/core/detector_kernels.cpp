#include "core/detector_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__)
#define DSSPY_X86_SIMD 1
#include <immintrin.h>
#endif

namespace dsspy::core::kernels {

namespace {

// ---------------------------------------------------------------- dispatch

SimdLevel cpu_best_level() noexcept {
#if DSSPY_X86_SIMD
    if (__builtin_cpu_supports("avx2")) return SimdLevel::Avx2;
#endif
    return SimdLevel::Scalar;
}

SimdLevel detected_level() noexcept {
    static const SimdLevel level = [] {
        const char* force = std::getenv("DSSPY_FORCE_SCALAR");
        if (force != nullptr && force[0] == '1') return SimdLevel::Scalar;
        return cpu_best_level();
    }();
    return level;
}

// -1 = no override; otherwise a SimdLevel, clamped to the CPU's best.
std::atomic<int> g_forced_level{-1};

/// Derived-type lookup table: the 12 OpKinds (plus 4 padding slots) folded
/// to AccessType codes, mirroring derive_access_type exactly.
constexpr std::array<std::uint8_t, 16> kOpToType = [] {
    std::array<std::uint8_t, 16> table{};
    for (std::size_t op = 0; op < 16; ++op)
        table[op] = static_cast<std::uint8_t>(
            op < runtime::kOpKindCount
                ? derive_access_type(static_cast<runtime::OpKind>(op))
                : AccessType::Read);
    return table;
}();

constexpr std::uint8_t kTypeRead =
    static_cast<std::uint8_t>(AccessType::Read);
constexpr std::uint8_t kTypeWrite =
    static_cast<std::uint8_t>(AccessType::Write);
constexpr std::uint8_t kTypeInsert =
    static_cast<std::uint8_t>(AccessType::Insert);
constexpr std::uint8_t kTypeDelete =
    static_cast<std::uint8_t>(AccessType::Delete);
constexpr std::uint8_t kTypeSearch =
    static_cast<std::uint8_t>(AccessType::Search);
constexpr std::uint8_t kTypeForAll =
    static_cast<std::uint8_t>(AccessType::ForAll);

// ----------------------------------------------------------- scalar cores

void derive_types_scalar(const std::uint8_t* ops, std::size_t n,
                         std::uint8_t* types) {
    for (std::size_t i = 0; i < n; ++i) types[i] = kOpToType[ops[i] & 0x0F];
}

std::uint32_t max_size_scalar(const std::uint32_t* sizes, std::size_t n) {
    std::uint32_t best = 0;
    for (std::size_t i = 0; i < n; ++i) best = std::max(best, sizes[i]);
    return best;
}

std::size_t count_op_scalar(const std::uint8_t* ops, std::size_t n,
                            std::uint8_t op) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) count += ops[i] == op ? 1 : 0;
    return count;
}

void end_traffic_scalar(const std::uint8_t* types,
                        const std::int64_t* positions,
                        const std::uint32_t* sizes, std::size_t n,
                        std::size_t iq_window, EndTraffic& iq,
                        EndTraffic& edge) {
    for (std::size_t i = 0; i < n; ++i) {
        const auto type = static_cast<AccessType>(types[i]);
        accumulate_end_traffic(iq, type, positions[i], sizes[i], iq_window);
        accumulate_end_traffic(edge, type, positions[i], sizes[i], 1);
    }
}

void end_traffic_span_scalar(std::uint8_t type,
                             const std::int64_t* positions,
                             const std::uint32_t* sizes, std::size_t n,
                             std::size_t iq_window, EndTraffic& iq,
                             EndTraffic& edge) {
    const auto ty = static_cast<AccessType>(type);
    for (std::size_t i = 0; i < n; ++i) {
        accumulate_end_traffic(iq, ty, positions[i], sizes[i], iq_window);
        accumulate_end_traffic(edge, ty, positions[i], sizes[i], 1);
    }
}

/// Rows whose value differs from the row before.
std::size_t type_changes_scalar(const std::uint8_t* data, std::size_t n) {
    std::size_t changes = 0;
    for (std::size_t i = 1; i < n; ++i)
        changes += data[i] != data[i - 1] ? 1 : 0;
    return changes;
}

/// Leading rows equal to `value`.
std::size_t value_streak_scalar(const std::uint8_t* data, std::size_t n,
                                std::uint8_t value) {
    std::size_t i = 0;
    while (i < n && data[i] == value) ++i;
    return i;
}

std::size_t monotone_streak_scalar(const std::uint8_t* types,
                                   const std::int64_t* positions,
                                   const std::uint16_t* threads,
                                   std::size_t n, std::uint8_t type,
                                   std::uint16_t tid, std::int64_t prev_pos,
                                   std::int64_t dir) {
    std::size_t i = 0;
    std::int64_t expect = prev_pos + dir;
    while (i < n && expect >= 0 && types[i] == type && threads[i] == tid &&
           positions[i] == expect) {
        ++i;
        expect += dir;
    }
    return i;
}

std::size_t end_anchor_streak_scalar(const std::uint8_t* types,
                                     const std::int64_t* positions,
                                     const std::uint32_t* sizes,
                                     const std::uint16_t* threads,
                                     std::size_t n, std::uint8_t type,
                                     std::uint16_t tid, EndAnchor anchor) {
    std::size_t i = 0;
    switch (anchor) {
        case EndAnchor::InsertBack:
            while (i < n && types[i] == type && threads[i] == tid &&
                   positions[i] ==
                       static_cast<std::int64_t>(sizes[i]) - 1)
                ++i;
            break;
        case EndAnchor::DeleteBack:
            while (i < n && types[i] == type && threads[i] == tid &&
                   positions[i] == static_cast<std::int64_t>(sizes[i]))
                ++i;
            break;
        case EndAnchor::Front:
            while (i < n && types[i] == type && threads[i] == tid &&
                   positions[i] == 0)
                ++i;
            break;
    }
    return i;
}

/// Derived category None: neither opens nor extends a run.
bool is_flushable_row(std::uint8_t type, std::int64_t position) noexcept {
    if (type >= kTypeSearch && type < kTypeForAll) return true;
    return (type == kTypeRead || type == kTypeWrite) && position < 0;
}

std::size_t flushable_streak_scalar(const std::uint8_t* types,
                                    const std::int64_t* positions,
                                    const std::uint16_t* threads,
                                    std::size_t n, std::uint16_t tid) {
    std::size_t i = 0;
    while (i < n && threads[i] == tid &&
           is_flushable_row(types[i], positions[i]))
        ++i;
    return i;
}

#if DSSPY_X86_SIMD

// -------------------------------------------------------------- AVX2 path

__attribute__((target("avx2"))) void derive_types_avx2(
    const std::uint8_t* ops, std::size_t n, std::uint8_t* types) {
    const __m256i table = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kOpToType.data())));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ops + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(types + i),
                            _mm256_shuffle_epi8(table, v));
    }
    derive_types_scalar(ops + i, n - i, types + i);
}

__attribute__((target("avx2"))) std::size_t count_op_avx2(
    const std::uint8_t* ops, std::size_t n, std::uint8_t op) {
    std::size_t count = 0;
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(op));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ops + i));
        count += static_cast<std::size_t>(
            __builtin_popcount(static_cast<unsigned>(
                _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)))));
    }
    return count + count_op_scalar(ops + i, n - i, op);
}

__attribute__((target("avx2"))) std::uint32_t max_size_avx2(
    const std::uint32_t* sizes, std::size_t n) {
    __m256i best = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sizes + i));
        best = _mm256_max_epu32(best, v);
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
    std::uint32_t out = 0;
    for (const std::uint32_t lane : lanes) out = std::max(out, lane);
    return std::max(out, max_size_scalar(sizes + i, n - i));
}

__attribute__((target("avx2"))) std::size_t value_streak_avx2(
    const std::uint8_t* data, std::size_t n, std::uint8_t value) {
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(value));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
        const auto mask = static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)));
        if (mask != 0xFFFFFFFFu)
            return i + static_cast<std::size_t>(__builtin_ctz(~mask));
    }
    return i + value_streak_scalar(data + i, n - i, value);
}

__attribute__((target("avx2"))) std::size_t type_changes_avx2(
    const std::uint8_t* data, std::size_t n) {
    std::size_t changes = 0;
    std::size_t i = 1;
    for (; i + 32 <= n; i += 32) {
        const __m256i cur =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
        const __m256i prev = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(data + i - 1));
        const auto same = static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(cur, prev)));
        changes += static_cast<std::size_t>(__builtin_popcount(~same));
    }
    return changes + type_changes_scalar(data + i - 1, n - i + 1);
}

/// Horizontal sum of a 4x64 accumulator.
__attribute__((target("avx2"))) std::uint64_t hsum_epi64(__m256i v) {
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// Load 4 consecutive u8 values widened to 64-bit lanes.
__attribute__((target("avx2"))) __m256i load4_u8_epi64(
    const std::uint8_t* p) {
    std::uint32_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(packed)));
}

/// Load 4 consecutive u32 values widened to 64-bit lanes.
__attribute__((target("avx2"))) __m256i load4_u32_epi64(
    const std::uint32_t* p) {
    return _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2"))) void end_traffic_avx2(
    const std::uint8_t* types, const std::int64_t* positions,
    const std::uint32_t* sizes, std::size_t n, std::size_t iq_window,
    EndTraffic& iq, EndTraffic& edge) {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i insert_t = _mm256_set1_epi64x(kTypeInsert);
    const __m256i delete_t = _mm256_set1_epi64x(kTypeDelete);
    const __m256i read_t = _mm256_set1_epi64x(kTypeRead);
    const __m256i write_t = _mm256_set1_epi64x(kTypeWrite);
    const __m256i wv[2] = {
        _mm256_set1_epi64x(static_cast<long long>(iq_window)), one};
    // Six mask-subtract accumulators per window: every matched lane holds
    // -1, so subtracting the mask adds exactly one per match.
    __m256i acc[2][6] = {};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i pos = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(positions + i));
        const __m256i sz = load4_u32_epi64(sizes + i);
        const __m256i ty = load4_u8_epi64(types + i);
        // position >= 0  <=>  !(0 > position)
        const __m256i valid = _mm256_andnot_si256(
            _mm256_cmpgt_epi64(zero, pos), _mm256_set1_epi64x(-1));
        const __m256i is_ins =
            _mm256_and_si256(_mm256_cmpeq_epi64(ty, insert_t), valid);
        const __m256i is_del =
            _mm256_and_si256(_mm256_cmpeq_epi64(ty, delete_t), valid);
        const __m256i is_rw = _mm256_and_si256(
            _mm256_or_si256(_mm256_cmpeq_epi64(ty, read_t),
                            _mm256_cmpeq_epi64(ty, write_t)),
            valid);
        for (int win = 0; win < 2; ++win) {
            const __m256i sz_minus_w = _mm256_sub_epi64(sz, wv[win]);
            // pos >= sz - w  <=>  pos > sz - w - 1
            const __m256i back_rw = _mm256_cmpgt_epi64(
                pos, _mm256_sub_epi64(sz_minus_w, one));
            // pos >= sz - w + 1  <=>  pos > sz - w
            const __m256i back_del = _mm256_cmpgt_epi64(pos, sz_minus_w);
            // pos < w
            const __m256i below_w = _mm256_cmpgt_epi64(wv[win], pos);
            const __m256i ins_back = _mm256_and_si256(is_ins, back_rw);
            const __m256i ins_front = _mm256_and_si256(
                is_ins, _mm256_andnot_si256(back_rw, below_w));
            const __m256i del_back = _mm256_and_si256(is_del, back_del);
            const __m256i del_front = _mm256_and_si256(
                is_del, _mm256_andnot_si256(back_del, below_w));
            const __m256i rw_back = _mm256_and_si256(is_rw, back_rw);
            const __m256i rw_front = _mm256_and_si256(
                is_rw, _mm256_andnot_si256(back_rw, below_w));
            acc[win][0] = _mm256_sub_epi64(acc[win][0], ins_front);
            acc[win][1] = _mm256_sub_epi64(acc[win][1], ins_back);
            acc[win][2] = _mm256_sub_epi64(acc[win][2], del_front);
            acc[win][3] = _mm256_sub_epi64(acc[win][3], del_back);
            acc[win][4] = _mm256_sub_epi64(acc[win][4], rw_front);
            acc[win][5] = _mm256_sub_epi64(acc[win][5], rw_back);
        }
    }
    EndTraffic* outs[2] = {&iq, &edge};
    for (int win = 0; win < 2; ++win) {
        outs[win]->front_insert += hsum_epi64(acc[win][0]);
        outs[win]->back_insert += hsum_epi64(acc[win][1]);
        outs[win]->front_delete += hsum_epi64(acc[win][2]);
        outs[win]->back_delete += hsum_epi64(acc[win][3]);
        outs[win]->front_read += hsum_epi64(acc[win][4]);
        outs[win]->back_read += hsum_epi64(acc[win][5]);
    }
    // The scalar tail is a sibling call that GCC emits without a
    // vzeroupper; left dirty, the upper halves slow every later SSE
    // instruction on this thread (the caller's, or an app's double math)
    // until the next vzeroupper.
    _mm256_zeroupper();
    end_traffic_scalar(types + i, positions + i, sizes + i, n - i, iq_window,
                       iq, edge);
}

/// Which of the three end-traffic accumulator pairs a constant-type span
/// feeds; hoisting this to a template parameter removes the per-row type
/// compares that dominate the general kernel.
enum class SpanClass { Insert, Delete, ReadWrite };

template <SpanClass kClass>
__attribute__((target("avx2"))) void end_traffic_span_avx2(
    const std::int64_t* positions, const std::uint32_t* sizes, std::size_t n,
    std::size_t iq_window, EndTraffic& iq, EndTraffic& edge) {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i wv[2] = {
        _mm256_set1_epi64x(static_cast<long long>(iq_window)), one};
    __m256i front_acc[2] = {};
    __m256i back_acc[2] = {};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i pos = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(positions + i));
        const __m256i sz = load4_u32_epi64(sizes + i);
        // position >= 0  <=>  !(0 > position)
        const __m256i valid = _mm256_andnot_si256(
            _mm256_cmpgt_epi64(zero, pos), _mm256_set1_epi64x(-1));
        for (int win = 0; win < 2; ++win) {
            const __m256i sz_minus_w = _mm256_sub_epi64(sz, wv[win]);
            // Insert/ReadWrite back: pos >= sz - w; Delete back:
            // pos >= sz - w + 1 (size recorded after the removal).
            const __m256i back =
                kClass == SpanClass::Delete
                    ? _mm256_cmpgt_epi64(pos, sz_minus_w)
                    : _mm256_cmpgt_epi64(pos,
                                         _mm256_sub_epi64(sz_minus_w, one));
            // front: !back && pos < w
            const __m256i front = _mm256_andnot_si256(
                back, _mm256_cmpgt_epi64(wv[win], pos));
            back_acc[win] = _mm256_sub_epi64(back_acc[win],
                                             _mm256_and_si256(valid, back));
            front_acc[win] = _mm256_sub_epi64(
                front_acc[win], _mm256_and_si256(valid, front));
        }
    }
    EndTraffic* outs[2] = {&iq, &edge};
    for (int win = 0; win < 2; ++win) {
        const std::uint64_t front = hsum_epi64(front_acc[win]);
        const std::uint64_t back = hsum_epi64(back_acc[win]);
        switch (kClass) {
            case SpanClass::Insert:
                outs[win]->front_insert += front;
                outs[win]->back_insert += back;
                break;
            case SpanClass::Delete:
                outs[win]->front_delete += front;
                outs[win]->back_delete += back;
                break;
            case SpanClass::ReadWrite:
                outs[win]->front_read += front;
                outs[win]->back_read += back;
                break;
        }
    }
    const std::uint8_t type = kClass == SpanClass::Insert   ? kTypeInsert
                              : kClass == SpanClass::Delete ? kTypeDelete
                                                            : kTypeRead;
    _mm256_zeroupper();  // See end_traffic_avx2.
    end_traffic_span_scalar(type, positions + i, sizes + i, n - i, iq_window,
                            iq, edge);
}

/// Mask of the leading lanes (of 4) satisfying `mask`; returns the streak
/// length within this block via the movemask bit pattern.
__attribute__((target("avx2"))) std::size_t leading_lanes(__m256i mask) {
    const auto bits = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(mask)));
    if (bits == 0xFu) return 4;
    return static_cast<std::size_t>(__builtin_ctz(~bits));
}

__attribute__((target("avx2"))) __m256i load4_u16_epi64(
    const std::uint16_t* p) {
    std::uint64_t packed;
    std::memcpy(&packed, p, sizeof(packed));
    return _mm256_cvtepu16_epi64(
        _mm_cvtsi64_si128(static_cast<long long>(packed)));
}

__attribute__((target("avx2"))) std::size_t monotone_streak_avx2(
    const std::uint8_t* types, const std::int64_t* positions,
    const std::uint16_t* threads, std::size_t n, std::uint8_t type,
    std::uint16_t tid, std::int64_t prev_pos, std::int64_t dir) {
    // Expected positions advance 4*dir per block; stop early on the
    // descending side before the chain would cross zero.
    std::size_t limit = n;
    if (dir < 0)
        limit = std::min<std::size_t>(
            n, prev_pos >= 0 ? static_cast<std::size_t>(prev_pos) : 0);
    const __m256i type_v = _mm256_set1_epi64x(type);
    const __m256i tid_v = _mm256_set1_epi64x(tid);
    __m256i expect = _mm256_set_epi64x(prev_pos + 4 * dir, prev_pos + 3 * dir,
                                       prev_pos + 2 * dir, prev_pos + dir);
    const __m256i step = _mm256_set1_epi64x(4 * dir);
    std::size_t i = 0;
    for (; i + 4 <= limit; i += 4) {
        const __m256i pos = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(positions + i));
        const __m256i ty = load4_u8_epi64(types + i);
        const __m256i th = load4_u16_epi64(threads + i);
        const __m256i ok = _mm256_and_si256(
            _mm256_cmpeq_epi64(pos, expect),
            _mm256_and_si256(_mm256_cmpeq_epi64(ty, type_v),
                             _mm256_cmpeq_epi64(th, tid_v)));
        const std::size_t lanes = leading_lanes(ok);
        if (lanes < 4) return i + lanes;
        expect = _mm256_add_epi64(expect, step);
    }
    return i + monotone_streak_scalar(types + i, positions + i, threads + i,
                                      n - i, type, tid,
                                      prev_pos + static_cast<std::int64_t>(i) * dir,
                                      dir);
}

__attribute__((target("avx2"))) std::size_t end_anchor_streak_avx2(
    const std::uint8_t* types, const std::int64_t* positions,
    const std::uint32_t* sizes, const std::uint16_t* threads, std::size_t n,
    std::uint8_t type, std::uint16_t tid, EndAnchor anchor) {
    const __m256i type_v = _mm256_set1_epi64x(type);
    const __m256i tid_v = _mm256_set1_epi64x(tid);
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i pos = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(positions + i));
        const __m256i ty = load4_u8_epi64(types + i);
        const __m256i th = load4_u16_epi64(threads + i);
        __m256i anchor_ok;
        switch (anchor) {
            case EndAnchor::InsertBack:
                anchor_ok = _mm256_cmpeq_epi64(
                    pos, _mm256_sub_epi64(load4_u32_epi64(sizes + i), one));
                break;
            case EndAnchor::DeleteBack:
                anchor_ok =
                    _mm256_cmpeq_epi64(pos, load4_u32_epi64(sizes + i));
                break;
            case EndAnchor::Front:
            default:
                anchor_ok = _mm256_cmpeq_epi64(pos, zero);
                break;
        }
        const __m256i ok = _mm256_and_si256(
            anchor_ok, _mm256_and_si256(_mm256_cmpeq_epi64(ty, type_v),
                                        _mm256_cmpeq_epi64(th, tid_v)));
        const std::size_t lanes = leading_lanes(ok);
        if (lanes < 4) return i + lanes;
    }
    _mm256_zeroupper();  // See end_traffic_avx2.
    return i + end_anchor_streak_scalar(types + i, positions + i, sizes + i,
                                        threads + i, n - i, type, tid,
                                        anchor);
}

__attribute__((target("avx2"))) std::size_t flushable_streak_avx2(
    const std::uint8_t* types, const std::int64_t* positions,
    const std::uint16_t* threads, std::size_t n, std::uint16_t tid) {
    const __m256i tid_v = _mm256_set1_epi64x(tid);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i search_minus1 = _mm256_set1_epi64x(kTypeSearch - 1);
    const __m256i forall_t = _mm256_set1_epi64x(kTypeForAll);
    const __m256i write_plus1 = _mm256_set1_epi64x(kTypeWrite + 1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i pos = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(positions + i));
        const __m256i ty = load4_u8_epi64(types + i);
        const __m256i th = load4_u16_epi64(threads + i);
        // Search <= type < ForAll (Search/Clear/Copy/Reverse/Sort)...
        const __m256i whole = _mm256_and_si256(
            _mm256_cmpgt_epi64(ty, search_minus1),
            _mm256_cmpgt_epi64(forall_t, ty));
        // ...or a positionless Read/Write (type <= Write and pos < 0).
        const __m256i neg_rw = _mm256_and_si256(
            _mm256_cmpgt_epi64(write_plus1, ty),
            _mm256_cmpgt_epi64(zero, pos));
        const __m256i ok = _mm256_and_si256(
            _mm256_or_si256(whole, neg_rw), _mm256_cmpeq_epi64(th, tid_v));
        const std::size_t lanes = leading_lanes(ok);
        if (lanes < 4) return i + lanes;
    }
    return i + flushable_streak_scalar(types + i, positions + i, threads + i,
                                       n - i, tid);
}

#endif  // DSSPY_X86_SIMD

std::size_t value_streak(const std::uint8_t* data, std::size_t n,
                         std::uint8_t value) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2)
        return value_streak_avx2(data, n, value);
#endif
    return value_streak_scalar(data, n, value);
}

std::size_t type_changes(const std::uint8_t* data, std::size_t n) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2)
        return type_changes_avx2(data, n);
#endif
    return type_changes_scalar(data, n);
}

}  // namespace

// -------------------------------------------------------------- public API

std::string_view simd_level_name(SimdLevel level) noexcept {
    switch (level) {
        case SimdLevel::Scalar: return "scalar";
        case SimdLevel::Avx2: return "avx2";
    }
    return "?";
}

SimdLevel active_simd_level() noexcept {
    const int forced = g_forced_level.load(std::memory_order_relaxed);
    if (forced >= 0)
        return std::min(static_cast<SimdLevel>(forced), cpu_best_level());
    return detected_level();
}

void force_simd_level(SimdLevel level) noexcept {
    g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void reset_forced_simd_level() noexcept {
    g_forced_level.store(-1, std::memory_order_relaxed);
}

void derive_types(const std::uint8_t* ops, std::size_t n,
                  std::uint8_t* types) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2) {
        derive_types_avx2(ops, n, types);
        return;
    }
#endif
    derive_types_scalar(ops, n, types);
}

std::uint32_t max_size_u32(const std::uint32_t* sizes, std::size_t n) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2)
        return max_size_avx2(sizes, n);
#endif
    return max_size_scalar(sizes, n);
}

std::size_t count_op(const std::uint8_t* ops, std::size_t n,
                     runtime::OpKind op) {
    const auto needle = static_cast<std::uint8_t>(op);
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2)
        return count_op_avx2(ops, n, needle);
#endif
    return count_op_scalar(ops, n, needle);
}

void end_traffic(const std::uint8_t* types, const std::int64_t* positions,
                 const std::uint32_t* sizes, std::size_t n,
                 std::size_t iq_window, EndTraffic& iq, EndTraffic& edge) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2 &&
        iq_window <= static_cast<std::size_t>(
                         std::numeric_limits<std::int64_t>::max())) {
        end_traffic_avx2(types, positions, sizes, n, iq_window, iq, edge);
        return;
    }
#endif
    end_traffic_scalar(types, positions, sizes, n, iq_window, iq, edge);
}

void end_traffic_span(std::uint8_t type, const std::int64_t* positions,
                      const std::uint32_t* sizes, std::size_t n,
                      std::size_t iq_window, EndTraffic& iq,
                      EndTraffic& edge) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2 &&
        iq_window <= static_cast<std::size_t>(
                         std::numeric_limits<std::int64_t>::max())) {
        if (type == kTypeInsert) {
            end_traffic_span_avx2<SpanClass::Insert>(positions, sizes, n,
                                                     iq_window, iq, edge);
            return;
        }
        if (type == kTypeDelete) {
            end_traffic_span_avx2<SpanClass::Delete>(positions, sizes, n,
                                                     iq_window, iq, edge);
            return;
        }
        if (type == kTypeRead || type == kTypeWrite) {
            end_traffic_span_avx2<SpanClass::ReadWrite>(positions, sizes, n,
                                                        iq_window, iq, edge);
            return;
        }
    }
#endif
    end_traffic_span_scalar(type, positions, sizes, n, iq_window, iq, edge);
}

void phases_from_types(const std::uint8_t* types, std::size_t n,
                       PhaseList& phases) {
    phases.clear();
    if (n == 0) return;
    // One phase per type change plus the first: size the vector once, so
    // phase-dense streams (alternating reads and writes) never regrow it.
    phases.reserve(type_changes(types, n) + 1);
    std::size_t i = 0;
    while (i < n) {
        // Short phases are scanned inline; only a phase that outlasts
        // kInlinePhaseRows calls the streak kernel, whose dispatch and
        // setup would dominate on type-alternating streams.
        constexpr std::size_t kInlinePhaseRows = 16;
        const std::uint8_t type = types[i];
        std::size_t len = 1;
        while (len < kInlinePhaseRows && i + len < n && types[i + len] == type)
            ++len;
        if (len == kInlinePhaseRows)
            len += value_streak(types + i + len, n - i - len, type);
        phases.push_back(Phase{static_cast<AccessType>(type),
                               static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(i + len - 1)});
        i += len;
    }
}

void collect_type_indices(const std::uint8_t* types, std::size_t n,
                          std::uint8_t type, std::vector<std::uint32_t>& out) {
    // memchr is already a vectorized byte scan on every libc we build
    // against; type codes are bytes, so it is the whole kernel.
    const std::uint8_t* base = types;
    std::size_t remaining = n;
    while (remaining > 0) {
        const void* hit = std::memchr(base, type, remaining);
        if (hit == nullptr) break;
        const auto* found = static_cast<const std::uint8_t*>(hit);
        out.push_back(static_cast<std::uint32_t>(found - types));
        remaining -= static_cast<std::size_t>(found - base) + 1;
        base = found + 1;
    }
}

std::size_t monotone_streak(const std::uint8_t* types,
                            const std::int64_t* positions,
                            const std::uint16_t* threads, std::size_t n,
                            std::uint8_t type, std::uint16_t tid,
                            std::int64_t prev_pos, std::int64_t dir) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2)
        return monotone_streak_avx2(types, positions, threads, n, type, tid,
                                    prev_pos, dir);
#endif
    return monotone_streak_scalar(types, positions, threads, n, type, tid,
                                  prev_pos, dir);
}

std::size_t end_anchor_streak(const std::uint8_t* types,
                              const std::int64_t* positions,
                              const std::uint32_t* sizes,
                              const std::uint16_t* threads, std::size_t n,
                              std::uint8_t type, std::uint16_t tid,
                              EndAnchor anchor) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2)
        return end_anchor_streak_avx2(types, positions, sizes, threads, n,
                                      type, tid, anchor);
#endif
    return end_anchor_streak_scalar(types, positions, sizes, threads, n,
                                    type, tid, anchor);
}

std::size_t flushable_streak(const std::uint8_t* types,
                             const std::int64_t* positions,
                             const std::uint16_t* threads, std::size_t n,
                             std::uint16_t tid) {
#if DSSPY_X86_SIMD
    if (active_simd_level() == SimdLevel::Avx2)
        return flushable_streak_avx2(types, positions, threads, n, tid);
#endif
    return flushable_streak_scalar(types, positions, threads, n, tid);
}

}  // namespace dsspy::core::kernels
