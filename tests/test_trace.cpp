/**
 * @file
 * Tests for the trace module's record vocabulary.
 */
#include <gtest/gtest.h>

#include "trace/record.hpp"

namespace maps {
namespace {

TEST(Record, MetadataTypeNames)
{
    EXPECT_STREQ(metadataTypeName(MetadataType::Counter), "counter");
    EXPECT_STREQ(metadataTypeName(MetadataType::TreeNode), "tree");
    EXPECT_STREQ(metadataTypeName(MetadataType::Hash), "hash");
    EXPECT_STREQ(metadataTypeName(MetadataType::Data), "data");
}

TEST(Record, TransitionClassification)
{
    EXPECT_EQ(classifyTransition(AccessType::Read, AccessType::Read),
              ReuseTransition::ReadAfterRead);
    EXPECT_EQ(classifyTransition(AccessType::Write, AccessType::Read),
              ReuseTransition::ReadAfterWrite);
    EXPECT_EQ(classifyTransition(AccessType::Read, AccessType::Write),
              ReuseTransition::WriteAfterRead);
    EXPECT_EQ(classifyTransition(AccessType::Write, AccessType::Write),
              ReuseTransition::WriteAfterWrite);
}

TEST(Record, TransitionNames)
{
    EXPECT_STREQ(reuseTransitionName(ReuseTransition::ReadAfterRead),
                 "RAR");
    EXPECT_STREQ(reuseTransitionName(ReuseTransition::WriteAfterWrite),
                 "WAW");
}

} // namespace
} // namespace maps
