/**
 * @file
 * Tests for dataset/batch serialization (the gen_data.sh-style cache
 * of sampled full batches, artifact appendix A.4).
 */
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "data/catalog.h"
#include "data/io.h"
#include "sampling/neighbor_sampler.h"
#include "test_helpers.h"

namespace betty {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + "/" + name;
}

TEST(DatasetIo, RoundTripPreservesEverything)
{
    const auto original = loadCatalogDataset("cora_like", 0.1, 7);
    const std::string path = tmpPath("ds_roundtrip.bin");
    ASSERT_TRUE(saveDataset(original, path));

    Dataset loaded;
    ASSERT_TRUE(loadDataset(loaded, path));
    std::remove(path.c_str());

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.numNodes(), original.numNodes());
    EXPECT_EQ(loaded.numEdges(), original.numEdges());
    EXPECT_EQ(loaded.numClasses, original.numClasses);
    EXPECT_EQ(loaded.labels, original.labels);
    EXPECT_EQ(loaded.trainNodes, original.trainNodes);
    EXPECT_EQ(loaded.valNodes, original.valNodes);
    EXPECT_EQ(loaded.testNodes, original.testNodes);
    ASSERT_TRUE(loaded.features.sameShape(original.features));
    for (int64_t i = 0; i < original.features.numel(); ++i)
        ASSERT_EQ(loaded.features.data()[i],
                  original.features.data()[i]);
    // Adjacency preserved.
    for (int64_t v = 0; v < original.numNodes(); ++v) {
        const auto a = original.graph.inNeighbors(v);
        const auto b = loaded.graph.inNeighbors(v);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]);
    }
}

TEST(DatasetIo, MissingFileReturnsFalse)
{
    Dataset ds;
    EXPECT_FALSE(loadDataset(ds, "/nonexistent/path/x.bin"));
    EXPECT_FALSE(saveDataset(ds, "/nonexistent/dir/x.bin"));
}

TEST(DatasetIoDeathTest, WrongMagicIsFatal)
{
    const std::string path = tmpPath("not_a_dataset.bin");
    {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[32] = "this is not a dataset at all!";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    Dataset ds;
    EXPECT_EXIT(loadDataset(ds, path),
                ::testing::ExitedWithCode(1), "not a Betty dataset");
    std::remove(path.c_str());
}

/** The corrupt-file corpus: every malformed input must come back as
 * the right typed IoError from loadDatasetChecked, with the output
 * dataset untouched — never UB, never a silent partial load. */
class DatasetCorruption : public ::testing::Test
{
  protected:
    static const Dataset&
    pristine()
    {
        static Dataset ds = loadCatalogDataset("cora_like", 0.05, 11);
        return ds;
    }

    /** Save a mutated copy of the pristine dataset and load it back
     * checked, asserting the load fails with @p expected and leaves
     * the destination dataset untouched. */
    template <typename Mutate>
    void
    expectError(const std::string& name, Mutate mutate,
                IoError expected)
    {
        Dataset broken = loadCatalogDataset("cora_like", 0.05, 11);
        mutate(broken);
        const std::string path = tmpPath(name);
        ASSERT_TRUE(saveDataset(broken, path));

        Dataset out = loadCatalogDataset("cora_like", 0.02, 3);
        const int64_t nodes_before = out.numNodes();
        const std::string name_before = out.name;
        const IoStatus status = loadDatasetChecked(out, path);
        std::remove(path.c_str());
        EXPECT_EQ(status.error, expected)
            << name << ": " << status.message;
        EXPECT_FALSE(status.message.empty());
        // Failed loads must not leave a partial object behind.
        EXPECT_EQ(out.numNodes(), nodes_before) << name;
        EXPECT_EQ(out.name, name_before) << name;
    }
};

TEST_F(DatasetCorruption, NanFeatureIsCorruptValues)
{
    expectError(
        "nan_feature.bin",
        [](Dataset& ds) {
            ds.features.data()[ds.features.numel() / 2] =
                std::numeric_limits<float>::quiet_NaN();
        },
        IoError::CorruptValues);
}

TEST_F(DatasetCorruption, InfFeatureIsCorruptValues)
{
    expectError(
        "inf_feature.bin",
        [](Dataset& ds) {
            ds.features.data()[0] =
                std::numeric_limits<float>::infinity();
        },
        IoError::CorruptValues);
}

TEST_F(DatasetCorruption, LabelPastNumClassesIsOutOfRange)
{
    expectError(
        "bad_label.bin",
        [](Dataset& ds) { ds.labels[0] = ds.numClasses + 5; },
        IoError::OutOfRange);
}

TEST_F(DatasetCorruption, NegativeLabelIsOutOfRange)
{
    expectError(
        "negative_label.bin",
        [](Dataset& ds) { ds.labels[ds.labels.size() / 2] = -2; },
        IoError::OutOfRange);
}

TEST_F(DatasetCorruption, SplitNodePastGraphIsOutOfRange)
{
    expectError(
        "bad_split.bin",
        [](Dataset& ds) { ds.trainNodes[0] = ds.numNodes() + 3; },
        IoError::OutOfRange);
}

TEST_F(DatasetCorruption, TruncatedFilesAtEveryQuarter)
{
    // A valid file cut at 1/4, 1/2, and 3/4 must always surface as a
    // typed error (Truncated, or CorruptValues when the cut lands
    // inside a validated structure), never as a crash or partial load.
    const std::string path = tmpPath("full.bin");
    ASSERT_TRUE(saveDataset(pristine(), path));
    std::string bytes;
    {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buffer[1 << 12];
        size_t got;
        while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
            bytes.append(buffer, got);
        std::fclose(f);
    }
    std::remove(path.c_str());
    ASSERT_GT(bytes.size(), 16u);

    for (int quarter = 1; quarter <= 3; ++quarter) {
        const std::string cut_path =
            tmpPath("cut" + std::to_string(quarter) + ".bin");
        {
            std::FILE* f = std::fopen(cut_path.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            const size_t keep = bytes.size() * size_t(quarter) / 4;
            std::fwrite(bytes.data(), 1, keep, f);
            std::fclose(f);
        }
        Dataset out;
        const IoStatus status = loadDatasetChecked(out, cut_path);
        std::remove(cut_path.c_str());
        EXPECT_FALSE(status.ok()) << "cut at quarter " << quarter;
        EXPECT_TRUE(status.error == IoError::Truncated ||
                    status.error == IoError::CorruptValues)
            << "cut at quarter " << quarter << ": "
            << ioErrorName(status.error);
        EXPECT_EQ(out.numNodes(), 0) << "partial load leaked through";
    }
}

TEST_F(DatasetCorruption, CheckedLoaderAcceptsThePristineFile)
{
    const std::string path = tmpPath("pristine.bin");
    ASSERT_TRUE(saveDataset(pristine(), path));
    Dataset out;
    const IoStatus status = loadDatasetChecked(out, path);
    std::remove(path.c_str());
    ASSERT_TRUE(status.ok()) << status.message;
    EXPECT_EQ(out.numNodes(), pristine().numNodes());
    EXPECT_EQ(out.labels, pristine().labels);
}

TEST(BatchIo, RoundTripPreservesBlocks)
{
    const auto ds = loadCatalogDataset("arxiv_like", 0.05, 9);
    NeighborSampler sampler(ds.graph, {4, 6}, 10);
    std::vector<int64_t> seeds(ds.trainNodes.begin(),
                               ds.trainNodes.begin() + 60);
    const auto original = sampler.sample(seeds);

    const std::string path = tmpPath("batch_roundtrip.bin");
    ASSERT_TRUE(saveBatch(original, path));
    MultiLayerBatch loaded;
    ASSERT_TRUE(loadBatch(loaded, path));
    std::remove(path.c_str());

    ASSERT_EQ(loaded.numLayers(), original.numLayers());
    for (int64_t layer = 0; layer < original.numLayers(); ++layer) {
        const Block& a = original.blocks[size_t(layer)];
        const Block& b = loaded.blocks[size_t(layer)];
        ASSERT_EQ(a.numDst(), b.numDst());
        ASSERT_EQ(a.numSrc(), b.numSrc());
        ASSERT_EQ(a.numEdges(), b.numEdges());
        // Identical local numbering (constructor is deterministic
        // given edge order), hence identical everything.
        EXPECT_EQ(a.srcNodes(), b.srcNodes());
        EXPECT_EQ(a.edgeOffsets(), b.edgeOffsets());
        EXPECT_EQ(a.edgeSources(), b.edgeSources());
    }
}

TEST(BatchIo, RoundTripOfTinyHandBuiltBatch)
{
    const auto original = testutil::tinyBatch();
    const std::string path = tmpPath("tiny_batch.bin");
    ASSERT_TRUE(saveBatch(original, path));
    MultiLayerBatch loaded;
    ASSERT_TRUE(loadBatch(loaded, path));
    std::remove(path.c_str());
    EXPECT_EQ(loaded.totalEdges(), original.totalEdges());
    EXPECT_EQ(loaded.inputNodes(), original.inputNodes());
}

/** One block as the batch format stores it: destinations, CSR
 * offsets and the edges' global source ids. */
struct RawBlock
{
    std::vector<int64_t> dsts;
    std::vector<int64_t> offsets;
    std::vector<int64_t> sources;
};

/** Write a batch file field by field, for contents saveBatch cannot
 * produce (it only writes valid Blocks). */
void
writeRawBatch(const std::string& path, const std::vector<RawBlock>& blocks)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    auto u64 = [f](uint64_t value) {
        std::fwrite(&value, sizeof(value), 1, f);
    };
    auto i64s = [&](const std::vector<int64_t>& values) {
        u64(values.size());
        std::fwrite(values.data(), sizeof(int64_t), values.size(), f);
    };
    u64(0x42455454595F4254ULL); // "BETTY_BT"
    u64(1);                     // format version
    u64(blocks.size());
    for (const RawBlock& block : blocks) {
        i64s(block.dsts);
        i64s(block.offsets);
        i64s(block.sources);
    }
    std::fclose(f);
}

/** Load @p path checked; the batch must come back untouched. */
IoStatus
loadIntoTinyBatch(const std::string& path)
{
    MultiLayerBatch batch = testutil::tinyBatch();
    const IoStatus status = loadBatchChecked(batch, path);
    std::remove(path.c_str());
    if (!status.ok()) {
        EXPECT_EQ(batch.numLayers(), 2);
        EXPECT_EQ(batch.totalEdges(), testutil::tinyBatch().totalEdges());
    }
    return status;
}

TEST(BatchCorruption, DuplicateDestinationIsCorruptValues)
{
    // The same writer with distinct destinations loads fine.
    const std::string path = tmpPath("batch_raw.bin");
    writeRawBatch(path, {{{3, 5, 4}, {0, 1, 2, 3}, {7, 8, 9}}});
    ASSERT_TRUE(loadIntoTinyBatch(path).ok());

    writeRawBatch(path, {{{3, 5, 3}, {0, 1, 2, 3}, {7, 8, 9}}});
    const IoStatus status = loadIntoTinyBatch(path);
    EXPECT_EQ(status.error, IoError::CorruptValues) << status.message;
    EXPECT_NE(status.message.find("duplicate destination 3"),
              std::string::npos)
        << status.message;
}

TEST(BatchCorruption, UnchainedLayersAreCorruptValues)
{
    // Inner destinations hold the outer block's sources, out of order.
    Block outer({0, 1}, {{2, 3}, {3, 4}});
    Block inner({0, 1, 3, 2, 4}, {{5}, {5, 6}, {7}, {6}, {2, 7}});
    MultiLayerBatch unchained;
    unchained.blocks = {inner, outer};
    const std::string path = tmpPath("batch_unchained.bin");
    ASSERT_TRUE(saveBatch(unchained, path));
    const IoStatus status = loadIntoTinyBatch(path);
    EXPECT_EQ(status.error, IoError::CorruptValues) << status.message;
    EXPECT_NE(status.message.find("layer 0's destinations are not "
                                  "layer 1's sources"),
              std::string::npos)
        << status.message;
}

TEST(BatchIoDeathTest, DatasetFileRejected)
{
    // Writing a dataset and reading it as a batch must fail loudly.
    const auto ds = loadCatalogDataset("cora_like", 0.05, 11);
    const std::string path = tmpPath("mixed_up.bin");
    ASSERT_TRUE(saveDataset(ds, path));
    MultiLayerBatch batch;
    EXPECT_EXIT(loadBatch(batch, path),
                ::testing::ExitedWithCode(1), "not a Betty batch");
    std::remove(path.c_str());
}

} // namespace
} // namespace betty
