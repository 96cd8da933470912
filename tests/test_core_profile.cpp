// Tests for an instance's runtime profile as the post-mortem engine sees
// it: access-type derivation, counts, phases, threads and duration.
#include <gtest/gtest.h>

#include "core/column_analysis.hpp"
#include "profile_builder.hpp"

namespace dsspy::core {
namespace {

using runtime::OpKind;
using test::BuiltProfile;
using test::ProfileBuilder;

TEST(AccessTypeDerivation, MapsEveryOp) {
    EXPECT_EQ(derive_access_type(OpKind::Get), AccessType::Read);
    EXPECT_EQ(derive_access_type(OpKind::Set), AccessType::Write);
    EXPECT_EQ(derive_access_type(OpKind::Add), AccessType::Insert);
    EXPECT_EQ(derive_access_type(OpKind::InsertAt), AccessType::Insert);
    EXPECT_EQ(derive_access_type(OpKind::RemoveAt), AccessType::Delete);
    EXPECT_EQ(derive_access_type(OpKind::Clear), AccessType::Clear);
    EXPECT_EQ(derive_access_type(OpKind::IndexOf), AccessType::Search);
    EXPECT_EQ(derive_access_type(OpKind::Sort), AccessType::Sort);
    EXPECT_EQ(derive_access_type(OpKind::Reverse), AccessType::Reverse);
    EXPECT_EQ(derive_access_type(OpKind::CopyTo), AccessType::Copy);
    EXPECT_EQ(derive_access_type(OpKind::ForEach), AccessType::ForAll);
    EXPECT_EQ(derive_access_type(OpKind::Resize), AccessType::Copy);
}

TEST(AccessTypeDerivation, ReadWriteClassification) {
    EXPECT_TRUE(is_read_like(AccessType::Read));
    EXPECT_TRUE(is_read_like(AccessType::Search));
    EXPECT_TRUE(is_read_like(AccessType::Copy));
    EXPECT_TRUE(is_read_like(AccessType::ForAll));
    EXPECT_TRUE(is_write_like(AccessType::Write));
    EXPECT_TRUE(is_write_like(AccessType::Insert));
    EXPECT_TRUE(is_write_like(AccessType::Delete));
    EXPECT_TRUE(is_write_like(AccessType::Clear));
    EXPECT_TRUE(is_write_like(AccessType::Sort));
    EXPECT_TRUE(is_write_like(AccessType::Reverse));
}

TEST(RuntimeProfile, EmptyProfile) {
    ProfileBuilder b;
    const BuiltProfile p = b.build();
    const InstanceStats s = p.instance().stats;
    EXPECT_EQ(s.total, 0u);
    EXPECT_TRUE(p.aggregates().phases.empty());
    EXPECT_EQ(s.duration_ns, 0u);
}

TEST(RuntimeProfile, CountsAndShares) {
    ProfileBuilder b;
    b.ev(OpKind::Add, 0, 1).ev(OpKind::Add, 1, 2);
    b.ev(OpKind::Get, 0, 2).ev(OpKind::Get, 1, 2);
    b.ev(OpKind::IndexOf, 1, 2);
    b.ev(OpKind::Clear, -1, 0);
    const InstanceStats s = b.build().instance().stats;
    EXPECT_EQ(s.total, 6u);
    EXPECT_EQ(s.counts[static_cast<std::size_t>(AccessType::Insert)], 2u);
    EXPECT_EQ(s.counts[static_cast<std::size_t>(AccessType::Read)], 2u);
    EXPECT_EQ(s.counts[static_cast<std::size_t>(AccessType::Search)], 1u);
    EXPECT_EQ(s.counts[static_cast<std::size_t>(AccessType::Clear)], 1u);
    EXPECT_EQ(s.max_size, 2u);
}

TEST(RuntimeProfile, PhaseSegmentation) {
    ProfileBuilder b;
    for (int i = 0; i < 5; ++i)
        b.ev(OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 3; ++i) b.ev(OpKind::Get, i, 5);
    b.ev(OpKind::Sort, -1, 5);
    for (int i = 0; i < 2; ++i) b.ev(OpKind::Set, i, 5);
    const PhaseList phases = b.build().aggregates().phases;
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0].type, AccessType::Insert);
    EXPECT_EQ(phases[0].length(), 5u);
    EXPECT_EQ(phases[1].type, AccessType::Read);
    EXPECT_EQ(phases[1].length(), 3u);
    EXPECT_EQ(phases[2].type, AccessType::Sort);
    EXPECT_EQ(phases[2].length(), 1u);
    EXPECT_EQ(phases[3].type, AccessType::Write);
    EXPECT_EQ(phases[3].length(), 2u);
    EXPECT_EQ(phases[3].first, 9u);
    EXPECT_EQ(phases[3].last, 10u);
}

TEST(RuntimeProfile, PhaseShareWithMinimumLength) {
    ProfileBuilder b;
    // Insert phase of 10, read phase of 5, insert phase of 3.
    for (int i = 0; i < 10; ++i)
        b.ev(OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 5; ++i) b.ev(OpKind::Get, i, 10);
    for (int i = 0; i < 3; ++i)
        b.ev(OpKind::Add, 10 + i, static_cast<std::uint32_t>(11 + i));
    const BuiltProfile p = b.build();
    const PhaseList phases = p.aggregates().phases;
    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0].length(), 10u);
    EXPECT_EQ(phases[1].length(), 5u);
    EXPECT_EQ(phases[2].length(), 3u);
    // The Long-Insert share counts events in insertion phases of at least
    // li_min_phase_events.
    DetectorConfig config;
    config.li_min_phase_events = 3;
    EXPECT_EQ(p.instance(config).stats.long_insert_events, 13u);
    // Only the first insert phase has >= 10 events.
    config.li_min_phase_events = 10;
    const InstanceStats s = p.instance(config).stats;
    EXPECT_EQ(s.long_insert_events, 10u);
    EXPECT_TRUE(s.has_longest_insert);
    EXPECT_EQ(s.longest_insert_length, 10u);
    EXPECT_EQ(s.read_pattern_events, 5u);
    EXPECT_EQ(s.counts[static_cast<std::size_t>(AccessType::Write)], 0u);
    config.li_min_phase_events = 11;
    EXPECT_FALSE(p.instance(config).stats.has_longest_insert);
}

TEST(RuntimeProfile, ThreadCountAndDuration) {
    ProfileBuilder b;
    b.ev(OpKind::Add, 0, 1, 0);
    b.ev(OpKind::Add, 1, 2, 1);
    b.ev(OpKind::Add, 2, 3, 2);
    b.ev(OpKind::Get, 0, 3, 0);
    const InstanceStats s = b.build().instance().stats;
    EXPECT_EQ(s.thread_count, 3u);
    EXPECT_EQ(s.duration_ns, 300u);  // time_ns = seq*100
}

// The thread set skips 32-row blocks of one id: ids that appear first at
// a block's first or last row, or at the slice's last row, still count.
TEST(RuntimeProfile, ThreadCountAcrossSkippedBlocks) {
    ProfileBuilder b;
    for (int i = 0; i < 130; ++i) {
        const runtime::ThreadId thread = i == 33 || i == 70 ? 1
                                         : i == 64          ? 2
                                         : i == 129         ? 3
                                                            : 0;
        b.ev(OpKind::Get, i, 130, thread);
    }
    EXPECT_EQ(b.build().instance().stats.thread_count, 4u);
}

}  // namespace
}  // namespace dsspy::core
