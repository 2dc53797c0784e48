/**
 * @file
 * The .tie model artifact: a versioned binary container for TT-format
 * models, and an mmap-based zero-copy loader.
 *
 * A .tie file captures exactly what the engine executes: per layer the
 * TtLayerConfig (shapes m/n and ranks r), the unfolded f64 stage cores,
 * optionally the quantized int16 twin plus the per-stage MacFormats of
 * the fixed-point datapath, and a model-level graph giving the layer
 * execution order (a chain: layer i's output feeds layer i+1). The
 * byte-for-byte layout, the versioning/compatibility policy and the
 * registry/FFI deployment story live in docs/serialization.md.
 *
 * Integrity is fail-stop, never best-effort: a fixed-width
 * little-endian header with a byte-order sentinel, a section table,
 * and a CRC-32 per section (plus one over the header). The loader
 * verifies all of it — truncation, trailing garbage, bit flips,
 * misaligned or overlapping sections, malformed configs, non-finite
 * f64 weights, int16 stage formats that do not chain — before a single
 * weight is handed out.
 * TieModel::tryLoad reports failures as error strings (the C FFI and
 * serving paths); TieModel::load turns them into the library's usual
 * fatal().
 *
 * Loading mmaps the file read-only: TieModel::layer() returns
 * TtLayerViews whose core pointers alias the mapping, so an
 * InferSession / serve::Server built over them consumes the on-disk
 * weights with no copy and no per-model heap growth — warm-up and the
 * steady-state zero-allocation contract are identical to in-process
 * models, and outputs are bit-identical (tests/test_tie_format.cc).
 * Core payload sections are 64-byte aligned for SIMD-friendly loads.
 */

#ifndef TIE_IO_TIE_FORMAT_HH
#define TIE_IO_TIE_FORMAT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tt/infer_session.hh"
#include "tt/tt_matrix.hh"

namespace tie {
namespace io {

/** First 8 bytes of every .tie artifact. */
inline constexpr char kTieMagic[8] = {'T', 'I', 'E', 'M',
                                      'O', 'D', 'L', '\0'};

/**
 * Byte-order sentinel stored little-endian at offset 8. A reader on a
 * byte-swapped host sees 0x04030201 and refuses the file instead of
 * loading bit-garbled weights.
 */
inline constexpr uint32_t kTieByteOrder = 0x01020304u;

/** Current (and only) format version. See docs/serialization.md. */
inline constexpr uint32_t kTieVersion = 1;

/** Fixed header size; the section table follows at this offset. */
inline constexpr size_t kTieHeaderSize = 64;

/** Fixed size of one section-table entry. */
inline constexpr size_t kTieSectionEntrySize = 32;

/** Alignment of every section payload offset within the file. */
inline constexpr size_t kTieAlign = 64;

/** `layer` value of model-scope (non-per-layer) sections. */
inline constexpr uint32_t kTieModelScope = 0xFFFFFFFFu;

/** Section kinds of format version 1. */
enum class TieSection : uint32_t
{
    ModelMeta = 1,   ///< u32 layer_count, u32 flags (bit0: has fxp)
    Graph = 2,       ///< u64 n, then n u32 layer ids in execution order
    LayerConfig = 3, ///< u64 d, d u64 m, d u64 n, (d+1) u64 r
    CoresF64 = 4,    ///< unfolded cores h=1..d, row-major f64, packed
    FxpMeta = 5,     ///< d records of 8 i32 (MacFormat fields)
    CoresI16 = 6,    ///< unfolded quantized cores, row-major i16
};

/** ModelMeta flags. */
inline constexpr uint32_t kTieFlagFxp = 1u << 0;

/**
 * One validated section-table row, as stored in the artifact (table
 * order). Everything here passed the loader's bounds/CRC checks.
 */
struct TieSectionInfo
{
    uint32_t kind = 0;
    uint32_t layer = 0; ///< kTieModelScope for model-scope sections
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc32 = 0;
};

/** Human-readable name of a TieSection kind ("?" when unknown). */
const char *tieSectionKindName(uint32_t kind);

/**
 * What gets serialized for one layer: the float cores always (as
 * views, so both owned matrices and mapped artifacts re-serialize),
 * plus the optional quantized twin. Either every layer of a model
 * carries fxp data or none does (the flag is model-level).
 */
struct TieLayerSpec
{
    TtLayerViewD f64;   ///< required
    TtFxpLayerView fxp; ///< optional quantized twin (no cores: none)
};

/** Spec over a float model (and optionally its quantized twin). */
TieLayerSpec makeLayerSpec(const TtMatrix &tt);
TieLayerSpec makeLayerSpec(const TtMatrix &tt, const TtMatrixFxp &fxp);

/**
 * Serialize a layer chain into an artifact image. fatal() on
 * malformed specs (shape mismatches, broken chain interfaces,
 * partial fxp coverage) — save-side errors are caller bugs.
 */
std::vector<uint8_t>
serializeTieModel(const std::vector<TieLayerSpec> &layers);

/** serializeTieModel + atomic-ish write (tmp file + rename). */
void saveTieModel(const std::vector<TieLayerSpec> &layers,
                  const std::string &path);

/** Single-layer float-only convenience. */
void saveTieModel(const TtMatrix &tt, const std::string &path);

/**
 * A loaded, fully validated model artifact. Cheap to copy (shared
 * immutable rep); views handed out stay valid while any copy — or any
 * session/registry entry holding one — is alive.
 */
class TieModel
{
  public:
    TieModel() = default;

    /**
     * mmap @p path and validate everything (see file header). On
     * failure returns false and, when @p error is non-null, a
     * diagnostic; *out is left invalid.
     */
    static bool tryLoad(const std::string &path, TieModel *out,
                        std::string *error = nullptr);

    /** tryLoad or fatal() with the diagnostic. */
    static TieModel load(const std::string &path);

    /** Validate an in-memory image the model takes ownership of. */
    static bool tryParse(std::vector<uint8_t> bytes, TieModel *out,
                         std::string *error = nullptr);

    /** tryParse or fatal() with the diagnostic. */
    static TieModel parse(std::vector<uint8_t> bytes);

    bool valid() const { return rep_ != nullptr; }

    /** Source path ("<memory>" for parsed images). */
    const std::string &path() const;

    /** True when the weights alias an mmap'd file (vs owned bytes). */
    bool mapped() const;

    /** Total artifact bytes. */
    size_t sizeBytes() const;

    size_t layerCount() const;
    bool hasFxp() const;

    /** The validated section table, in file (table) order. */
    const std::vector<TieSectionInfo> &sections() const;

    /** Chain interface sizes: input of the first / output of the last
        layer in execution order. */
    size_t inSize() const;
    size_t outSize() const;

    /** Config of the @p i-th layer in execution order. */
    const TtLayerConfig &config(size_t i) const;

    /**
     * Zero-copy view of the @p i-th executed layer; core pointers
     * alias this model's storage (keep a TieModel copy alive).
     */
    TtLayerViewD layer(size_t i) const;

    /** All layers in execution order (the serve::Server ctor shape). */
    std::vector<TtLayerViewD> layers() const;

    /** Quantized twin of layer @p i; fatal() when !hasFxp(). */
    TtFxpLayerView fxpLayer(size_t i) const;

    /** Copying conveniences (tests, tools, re-decomposition). */
    TtMatrix toTtMatrix(size_t i) const;
    TtMatrixFxp toTtMatrixFxp(size_t i) const;

  private:
    struct Rep;
    std::shared_ptr<const Rep> rep_;
};

} // namespace io
} // namespace tie

#endif // TIE_IO_TIE_FORMAT_HH
