/**
 * @file
 * Per-test scratch directories. Fixed file names under
 * testing::TempDir() collide when ctest runs several test processes
 * at once (or one test after a crashed run left files behind); every
 * test that touches the file system takes its paths from here.
 */

#ifndef CARBONX_TESTS_SUPPORT_TEMP_DIR_H
#define CARBONX_TESTS_SUPPORT_TEMP_DIR_H

#include <string>

namespace carbonx::testsupport
{

/**
 * A directory owned by the running test, keyed by the process id and
 * the full test name: <TempDir>/carbonx-<pid>-<Suite.Test>/, returned
 * with a trailing slash. The first call of a test empties and creates
 * it; later calls of the same test return it unchanged.
 */
std::string uniqueTestDir();

} // namespace carbonx::testsupport

#endif // CARBONX_TESTS_SUPPORT_TEMP_DIR_H
