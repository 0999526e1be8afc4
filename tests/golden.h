/**
 * @file
 * The committed golden-value corpus under tests/golden/
 * (BETTY_GOLDEN_DIR): one "<key> <16 hex digits>" line per value.
 * Regenerate a file with BETTY_UPDATE_GOLDEN=1 after an intentional
 * output change; the test then rewrites it and skips.
 */
#ifndef BETTY_TESTS_GOLDEN_H
#define BETTY_TESTS_GOLDEN_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#ifndef BETTY_GOLDEN_DIR
#error "golden.h needs BETTY_GOLDEN_DIR (tests/CMakeLists.txt)"
#endif

namespace betty::testutil {

inline std::string
goldenPath(const std::string& name)
{
    return std::string(BETTY_GOLDEN_DIR) + "/" + name + ".golden";
}

inline std::map<std::string, uint64_t>
readGolden(const std::string& path)
{
    std::map<std::string, uint64_t> golden;
    std::ifstream in(path);
    std::string key, hex;
    while (in >> key >> hex)
        golden[key] = std::stoull(hex, nullptr, 16);
    return golden;
}

/** Compare @p actual with tests/golden/<name>.golden, or rewrite that
 * file (and skip) under BETTY_UPDATE_GOLDEN. */
inline void
checkAgainstGolden(const std::string& name,
                   const std::map<std::string, uint64_t>& actual)
{
    const std::string path = goldenPath(name);
    if (std::getenv("BETTY_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const auto& [key, value] : actual) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          (unsigned long long)value);
            out << key << " " << hex << "\n";
        }
        GTEST_SKIP() << "golden corpus regenerated: " << path;
    }
    const auto golden = readGolden(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden corpus " << path
        << " (generate with BETTY_UPDATE_GOLDEN=1)";
    EXPECT_EQ(golden.size(), actual.size());
    for (const auto& [key, value] : actual) {
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
        EXPECT_EQ(it->second, value)
            << key << " drifted from the committed golden value";
    }
}

} // namespace betty::testutil

#endif // BETTY_TESTS_GOLDEN_H
