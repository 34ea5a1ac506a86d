// Private scratch directories for tests that write files.
//
// ctest -j runs every discovered TEST as its own process, and all of them
// share ::testing::TempDir(); a fixed file name there is a race between
// processes (one test's SetUp rewriting a file another is reading). Files
// made through temp_path() live instead in
//
//   <TempDir>/hotspot_test.<pid>/<Suite>.<Test>/
//
// which is created on first use. A listener registered by temp_dir.cpp
// removes the test's directory, with everything in it, when the test ends,
// and the process directory when the test program ends.
#pragma once

#include <string>

namespace hotspot::testutil {

// The running test's private directory (the process directory when no
// test is running); created if missing.
std::string temp_dir();

// temp_dir() + "/" + name.
std::string temp_path(const std::string& name);

}  // namespace hotspot::testutil
