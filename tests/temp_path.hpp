// Test helper: scratch file names that no other test process shares.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace dsspy::testing_support {

/// A path under gtest's TempDir() named after the running test case and
/// this process, ending in `suffix`.  ctest runs each case in a process
/// of its own, several at once under -j, so a fixed name would let one
/// case rewrite or remove a file another case still reads.
inline std::string unique_temp_path(const std::string& suffix) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        info != nullptr
            ? std::string(info->test_suite_name()) + "." + info->name()
            : std::string("no_test");
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + "dsspy_" + name + "_" +
           std::to_string(::getpid()) + suffix;
}

}  // namespace dsspy::testing_support
