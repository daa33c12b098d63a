#include "temp_dir.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

namespace carbonx::testsupport
{

std::string
uniqueTestDir()
{
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr
        ? std::string(info->test_suite_name()) + "." + info->name()
        : std::string("no-test");
    // Parameterized names carry '/' separators.
    std::replace(name.begin(), name.end(), '/', '_');
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        ("carbonx-" + std::to_string(::getpid()) + "-" + name);

    static std::string prepared;
    if (prepared != dir.string()) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        prepared = dir.string();
    }
    return dir.string() + "/";
}

} // namespace carbonx::testsupport
