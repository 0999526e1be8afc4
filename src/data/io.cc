#include "data/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <unordered_set>
#include <vector>

#include "util/logging.h"

namespace betty {

namespace {

constexpr uint64_t kDatasetMagic = 0x42455454595F4453ULL; // "BETTY_DS"
constexpr uint64_t kBatchMagic = 0x42455454595F4254ULL;   // "BETTY_BT"
constexpr uint64_t kVersion = 1;

void
writeU64(std::ostream& out, uint64_t value)
{
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void
writeI64Vec(std::ostream& out, const std::vector<int64_t>& values)
{
    writeU64(out, values.size());
    out.write(reinterpret_cast<const char*>(values.data()),
              std::streamsize(values.size() * sizeof(int64_t)));
}

void
writeString(std::ostream& out, const std::string& text)
{
    writeU64(out, text.size());
    out.write(text.data(), std::streamsize(text.size()));
}

/**
 * Size-bounded reader: every read is checked against the bytes the
 * file actually contains, so a truncated file or a corrupt length
 * prefix yields IoError::Truncated instead of a garbage-sized
 * allocation and an uninitialized-memory read (the historical UB
 * this layer is hardened against).
 */
struct Reader
{
    std::istream& in;
    const std::string& path;
    uint64_t remaining;
    IoStatus status;

    bool
    fail(IoError error, const std::string& message)
    {
        if (status.ok()) {
            status.error = error;
            status.message = message;
        }
        return false;
    }

    bool
    truncated(const char* what)
    {
        return fail(IoError::Truncated,
                    "'" + path + "' is truncated (while reading " +
                        what + ")");
    }

    bool
    readRaw(void* out, uint64_t bytes, const char* what)
    {
        if (bytes > remaining)
            return truncated(what);
        in.read(static_cast<char*>(out), std::streamsize(bytes));
        if (uint64_t(in.gcount()) != bytes)
            return truncated(what);
        remaining -= bytes;
        return true;
    }

    bool
    readU64(uint64_t& value, const char* what)
    {
        return readRaw(&value, sizeof(value), what);
    }

    /** A count whose payload of @p elem_size-byte elements must still
     * fit in the file — rejects corrupt length prefixes before any
     * allocation happens. */
    bool
    readCount(uint64_t& count, uint64_t elem_size, const char* what)
    {
        if (!readU64(count, what))
            return false;
        if (elem_size > 0 && count > remaining / elem_size)
            return truncated(what);
        return true;
    }

    bool
    readI64Vec(std::vector<int64_t>& values, const char* what)
    {
        uint64_t count = 0;
        if (!readCount(count, sizeof(int64_t), what))
            return false;
        values.resize(count);
        return readRaw(values.data(), count * sizeof(int64_t), what);
    }

    bool
    readString(std::string& text, const char* what)
    {
        uint64_t count = 0;
        if (!readCount(count, 1, what))
            return false;
        text.assign(count, '\0');
        return readRaw(text.data(), count, what);
    }
};

/** Open @p path and size the reader; IoError::NotFound on failure. */
bool
openReader(std::ifstream& in, const std::string& path,
           uint64_t& remaining, IoStatus& status)
{
    in.open(path, std::ios::binary | std::ios::ate);
    if (!in) {
        status.error = IoError::NotFound;
        status.message = "cannot open '" + path + "'";
        return false;
    }
    remaining = uint64_t(in.tellg());
    in.seekg(0);
    return true;
}

void
writeBlock(std::ostream& out, const Block& block)
{
    std::vector<int64_t> dsts(block.dstNodes().begin(),
                              block.dstNodes().end());
    writeI64Vec(out, dsts);
    writeI64Vec(out, block.edgeOffsets());
    // Edge sources in GLOBAL ids: reconstruction re-derives the local
    // numbering (the Block constructor assigns it deterministically
    // from edge order, which is exactly how the original was built).
    std::vector<int64_t> sources;
    sources.reserve(size_t(block.numEdges()));
    for (int64_t local : block.edgeSources())
        sources.push_back(block.srcNodes()[size_t(local)]);
    writeI64Vec(out, sources);
}

bool
readBlock(Reader& r, Block& block)
{
    std::vector<int64_t> dsts, offsets, sources;
    if (!r.readI64Vec(dsts, "block destinations") ||
        !r.readI64Vec(offsets, "block offsets") ||
        !r.readI64Vec(sources, "block sources"))
        return false;
    if (offsets.size() != dsts.size() + 1)
        return r.fail(IoError::CorruptValues,
                      "'" + r.path +
                          "': block offset count disagrees with "
                          "destination count");
    if (!offsets.empty() && offsets.front() != 0)
        return r.fail(IoError::CorruptValues,
                      "'" + r.path +
                          "': block offsets do not start at 0");
    for (size_t d = 1; d < offsets.size(); ++d)
        if (offsets[d] < offsets[d - 1])
            return r.fail(IoError::CorruptValues,
                          "'" + r.path +
                              "': block offsets are not monotone");
    if (!offsets.empty() &&
        uint64_t(offsets.back()) != sources.size())
        return r.fail(IoError::CorruptValues,
                      "'" + r.path +
                          "': block edge count disagrees with "
                          "source array");
    // The Block constructor asserts unique destinations; a file is
    // input, so a duplicate is a typed error, not a panic.
    std::unordered_set<int64_t> seen;
    seen.reserve(dsts.size() * 2);
    for (int64_t dst : dsts)
        if (!seen.insert(dst).second)
            return r.fail(IoError::CorruptValues,
                          "'" + r.path +
                              "': block has duplicate destination " +
                              std::to_string(dst));
    std::vector<std::vector<int64_t>> src_per_dst(dsts.size());
    for (size_t d = 0; d < dsts.size(); ++d)
        src_per_dst[d].assign(sources.begin() + offsets[d],
                              sources.begin() + offsets[d + 1]);
    block = Block(std::move(dsts), src_per_dst);
    return true;
}

} // namespace

const char*
ioErrorName(IoError error)
{
    switch (error) {
      case IoError::None:
        return "none";
      case IoError::NotFound:
        return "not-found";
      case IoError::BadMagic:
        return "bad-magic";
      case IoError::BadVersion:
        return "bad-version";
      case IoError::Truncated:
        return "truncated";
      case IoError::CorruptValues:
        return "corrupt-values";
      case IoError::OutOfRange:
        return "out-of-range";
      case IoError::ShapeMismatch:
        return "shape-mismatch";
      case IoError::WriteFailed:
        return "write-failed";
    }
    return "?";
}

bool
saveDataset(const Dataset& dataset, const std::string& path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    writeU64(out, kDatasetMagic);
    writeU64(out, kVersion);
    writeString(out, dataset.name);
    writeU64(out, uint64_t(dataset.numNodes()));

    // Edges.
    const auto edges = dataset.graph.edgeList();
    std::vector<int64_t> srcs, dsts;
    srcs.reserve(edges.size());
    dsts.reserve(edges.size());
    for (const Edge& e : edges) {
        srcs.push_back(e.src);
        dsts.push_back(e.dst);
    }
    writeI64Vec(out, srcs);
    writeI64Vec(out, dsts);

    // Features.
    writeU64(out, uint64_t(dataset.features.rows()));
    writeU64(out, uint64_t(dataset.features.cols()));
    if (dataset.features.numel() > 0)
        out.write(reinterpret_cast<const char*>(
                      dataset.features.data()),
                  std::streamsize(dataset.features.bytes()));

    // Labels and splits.
    writeU64(out, uint64_t(dataset.numClasses));
    writeU64(out, dataset.labels.size());
    out.write(reinterpret_cast<const char*>(dataset.labels.data()),
              std::streamsize(dataset.labels.size() *
                              sizeof(int32_t)));
    writeI64Vec(out, dataset.trainNodes);
    writeI64Vec(out, dataset.valNodes);
    writeI64Vec(out, dataset.testNodes);
    return static_cast<bool>(out);
}

IoStatus
loadDatasetChecked(Dataset& dataset, const std::string& path)
{
    IoStatus status;
    std::ifstream in;
    uint64_t remaining = 0;
    if (!openReader(in, path, remaining, status))
        return status;
    Reader r{in, path, remaining, {}};

    uint64_t magic = 0, version = 0;
    if (!r.readU64(magic, "magic"))
        return r.status;
    if (magic != kDatasetMagic) {
        r.fail(IoError::BadMagic,
               "'" + path + "' is not a Betty dataset file");
        return r.status;
    }
    if (!r.readU64(version, "version"))
        return r.status;
    if (version != kVersion) {
        r.fail(IoError::BadVersion,
               "'" + path + "' has an unsupported dataset version");
        return r.status;
    }

    // Parse into a fresh object; @p dataset is only touched on full
    // success, so a corrupt file can never leave a partial dataset.
    Dataset loaded;
    uint64_t num_nodes_u = 0;
    if (!r.readString(loaded.name, "name") ||
        !r.readU64(num_nodes_u, "node count"))
        return r.status;
    const int64_t num_nodes = int64_t(num_nodes_u);
    if (num_nodes < 0) {
        r.fail(IoError::CorruptValues,
               "'" + path + "': negative node count");
        return r.status;
    }

    std::vector<int64_t> srcs, dsts;
    if (!r.readI64Vec(srcs, "edge sources") ||
        !r.readI64Vec(dsts, "edge destinations"))
        return r.status;
    if (srcs.size() != dsts.size()) {
        r.fail(IoError::CorruptValues,
               "'" + path + "': edge source/destination arrays "
                            "have different lengths");
        return r.status;
    }
    std::vector<Edge> edges;
    edges.reserve(srcs.size());
    for (size_t i = 0; i < srcs.size(); ++i) {
        if (srcs[i] < 0 || srcs[i] >= num_nodes || dsts[i] < 0 ||
            dsts[i] >= num_nodes) {
            r.fail(IoError::OutOfRange,
                   "'" + path + "': edge " + std::to_string(i) +
                       " references a node outside [0, " +
                       std::to_string(num_nodes) + ")");
            return r.status;
        }
        edges.push_back({srcs[i], dsts[i]});
    }

    uint64_t rows_u = 0, cols_u = 0;
    if (!r.readU64(rows_u, "feature rows") ||
        !r.readU64(cols_u, "feature cols"))
        return r.status;
    const int64_t rows = int64_t(rows_u);
    const int64_t cols = int64_t(cols_u);
    // Bound both dims before multiplying so a corrupt header cannot
    // overflow the byte count into a "fits" verdict.
    if (rows < 0 || cols < 0 || rows_u > (uint64_t(1) << 40) ||
        cols_u > (uint64_t(1) << 40) ||
        (cols_u > 0 &&
         rows_u > r.remaining / (cols_u * sizeof(float)))) {
        r.fail(IoError::Truncated,
               "'" + path + "': feature matrix larger than the file");
        return r.status;
    }
    if (rows != num_nodes) {
        r.fail(IoError::ShapeMismatch,
               "'" + path + "': feature rows " + std::to_string(rows) +
                   " != node count " + std::to_string(num_nodes));
        return r.status;
    }
    loaded.features = Tensor(rows, cols);
    if (loaded.features.numel() > 0 &&
        !r.readRaw(loaded.features.data(),
                   uint64_t(loaded.features.bytes()), "features"))
        return r.status;
    for (int64_t i = 0; i < loaded.features.numel(); ++i) {
        if (!std::isfinite(loaded.features.data()[i])) {
            r.fail(IoError::CorruptValues,
                   "'" + path + "': feature value " +
                       std::to_string(i) + " is NaN or Inf");
            return r.status;
        }
    }

    uint64_t num_classes_u = 0, num_labels = 0;
    if (!r.readU64(num_classes_u, "class count") ||
        !r.readCount(num_labels, sizeof(int32_t), "label count"))
        return r.status;
    loaded.numClasses = int32_t(num_classes_u);
    if (loaded.numClasses < 0) {
        r.fail(IoError::CorruptValues,
               "'" + path + "': negative class count");
        return r.status;
    }
    std::vector<int32_t> labels(num_labels);
    if (!r.readRaw(labels.data(), num_labels * sizeof(int32_t),
                   "labels"))
        return r.status;
    if (int64_t(labels.size()) != num_nodes) {
        r.fail(IoError::ShapeMismatch,
               "'" + path + "': label count " +
                   std::to_string(labels.size()) + " != node count " +
                   std::to_string(num_nodes));
        return r.status;
    }
    for (size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] < 0 || labels[i] >= loaded.numClasses) {
            r.fail(IoError::OutOfRange,
                   "'" + path + "': label of node " +
                       std::to_string(i) + " (" +
                       std::to_string(labels[i]) +
                       ") outside [0, " +
                       std::to_string(loaded.numClasses) + ")");
            return r.status;
        }
    }
    loaded.labels = std::move(labels);

    for (auto* split : {&loaded.trainNodes, &loaded.valNodes,
                        &loaded.testNodes}) {
        if (!r.readI64Vec(*split, "split nodes"))
            return r.status;
        for (int64_t node : *split) {
            if (node < 0 || node >= num_nodes) {
                r.fail(IoError::OutOfRange,
                       "'" + path + "': split references node " +
                           std::to_string(node) + " outside [0, " +
                           std::to_string(num_nodes) + ")");
                return r.status;
            }
        }
    }

    loaded.graph = CsrGraph(num_nodes, edges);
    dataset = std::move(loaded);
    return r.status;
}

bool
loadDataset(Dataset& dataset, const std::string& path)
{
    const IoStatus status = loadDatasetChecked(dataset, path);
    if (status.ok())
        return true;
    if (status.error == IoError::NotFound)
        return false;
    fatal(status.message);
    return false;
}

bool
saveBatch(const MultiLayerBatch& batch, const std::string& path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    writeU64(out, kBatchMagic);
    writeU64(out, kVersion);
    writeU64(out, batch.blocks.size());
    for (const Block& block : batch.blocks)
        writeBlock(out, block);
    return static_cast<bool>(out);
}

IoStatus
loadBatchChecked(MultiLayerBatch& batch, const std::string& path)
{
    IoStatus status;
    std::ifstream in;
    uint64_t remaining = 0;
    if (!openReader(in, path, remaining, status))
        return status;
    Reader r{in, path, remaining, {}};

    uint64_t magic = 0, version = 0;
    if (!r.readU64(magic, "magic"))
        return r.status;
    if (magic != kBatchMagic) {
        r.fail(IoError::BadMagic,
               "'" + path + "' is not a Betty batch file");
        return r.status;
    }
    if (!r.readU64(version, "version"))
        return r.status;
    if (version != kVersion) {
        r.fail(IoError::BadVersion,
               "'" + path + "' has an unsupported batch version");
        return r.status;
    }

    uint64_t layers = 0;
    if (!r.readCount(layers, 1, "layer count"))
        return r.status;
    MultiLayerBatch loaded;
    loaded.blocks.reserve(layers);
    for (uint64_t layer = 0; layer < layers; ++layer) {
        Block block;
        if (!readBlock(r, block))
            return r.status;
        // The chaining invariant (sampling/block.h) every consumer of
        // a batch relies on.
        if (layer > 0) {
            const auto dsts = loaded.blocks.back().dstNodes();
            const auto& srcs = block.srcNodes();
            if (!std::equal(dsts.begin(), dsts.end(), srcs.begin(),
                            srcs.end())) {
                r.fail(IoError::CorruptValues,
                       "'" + path + "': layer " +
                           std::to_string(layer - 1) +
                           "'s destinations are not layer " +
                           std::to_string(layer) + "'s sources");
                return r.status;
            }
        }
        loaded.blocks.push_back(std::move(block));
    }
    batch = std::move(loaded);
    return r.status;
}

bool
loadBatch(MultiLayerBatch& batch, const std::string& path)
{
    const IoStatus status = loadBatchChecked(batch, path);
    if (status.ok())
        return true;
    if (status.error == IoError::NotFound)
        return false;
    fatal(status.message);
    return false;
}

} // namespace betty
