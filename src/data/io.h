/**
 * @file
 * Binary serialization of datasets and sampled batches.
 *
 * Mirrors the artifact's workflow (appendix A.4: gen_data.sh writes
 * "pickle files of full batch data after sampling" which the training
 * scripts then reload): sampling a large full batch once and reusing
 * it across experiments is much cheaper than resampling, and makes
 * runs byte-reproducible across processes.
 *
 * Format: little-endian, a magic tag + version per object, then raw
 * int64/float arrays. Not portable to big-endian machines — this is a
 * cache format, not an interchange format.
 *
 * Malformed input (truncation, counts past end-of-file, NaN/Inf
 * features, out-of-range node/label ids) is detected and reported as
 * a typed IoStatus by the *Checked loaders — never undefined
 * behaviour, never a silent partial object. The bool wrappers keep
 * the historical behaviour of fatal()ing loudly on corruption.
 */
#ifndef BETTY_DATA_IO_H
#define BETTY_DATA_IO_H

#include <string>

#include "data/dataset.h"
#include "sampling/block.h"

namespace betty {

/** What went wrong reading or writing a serialized object. */
enum class IoError
{
    None = 0,
    /** The file could not be opened for reading. */
    NotFound,
    /** The magic tag is not the expected object type. */
    BadMagic,
    /** The format version is not supported by this build. */
    BadVersion,
    /** The file ends before the data its counts promise. */
    Truncated,
    /** Values that can never be valid (NaN/Inf features,
     * inconsistent array lengths, non-monotone offsets, duplicate
     * block destinations, unchained batch layers). */
    CorruptValues,
    /** An id (edge endpoint, label, split node) outside its domain. */
    OutOfRange,
    /** Array dimensions disagree with the object's own header. */
    ShapeMismatch,
    /** The file could not be opened or fully written. */
    WriteFailed,
};

/** Printable error category name. */
const char* ioErrorName(IoError error);

/** Typed result of a checked load/save. */
struct IoStatus
{
    IoError error = IoError::None;
    /** Human-readable detail ("" when ok). */
    std::string message;

    bool ok() const { return error == IoError::None; }
};

/** @name Dataset serialization */
/** @{ */

/** Write @p dataset to @p path; returns false on I/O failure. */
bool saveDataset(const Dataset& dataset, const std::string& path);

/**
 * Read a dataset written by saveDataset, validating structure and
 * values: truncated files, NaN/Inf features, and out-of-range
 * edge/label/split ids all produce a typed error with @p dataset
 * untouched — never UB or a silent partial dataset.
 */
IoStatus loadDatasetChecked(Dataset& dataset, const std::string& path);

/**
 * Read a dataset written by saveDataset. fatal() on malformed input
 * (bad magic/version/corruption); returns false only on plain I/O
 * failure.
 */
bool loadDataset(Dataset& dataset, const std::string& path);

/** @} */

/** @name Batch serialization */
/** @{ */

/** Write a sampled multi-level batch to @p path. */
bool saveBatch(const MultiLayerBatch& batch, const std::string& path);

/** Read a batch written by saveBatch, with full validation (see
 * loadDatasetChecked). A block with a duplicate destination, or a
 * layer whose destinations are not the sources of the layer above
 * (MultiLayerBatch's chaining invariant), is CorruptValues. */
IoStatus loadBatchChecked(MultiLayerBatch& batch,
                          const std::string& path);

/** Read a batch written by saveBatch. fatal() on malformed input. */
bool loadBatch(MultiLayerBatch& batch, const std::string& path);

/** @} */

} // namespace betty

#endif // BETTY_DATA_IO_H
