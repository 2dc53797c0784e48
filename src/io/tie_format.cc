#include "io/tie_format.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "io/crc32.hh"

namespace tie {
namespace io {

namespace {

// ---------------------------------------------------------------- //
// Little-endian scalar access on byte images. The byte-order
// sentinel guarantees the file matches the host, so plain memcpy is
// the (aliasing-safe) load/store.
// ---------------------------------------------------------------- //

template <typename T>
void
putLe(std::vector<uint8_t> &buf, size_t off, T v)
{
    TIE_REQUIRE(off + sizeof(T) <= buf.size(), "putLe out of bounds");
    std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
void
appendLe(std::vector<uint8_t> &buf, T v)
{
    const size_t off = buf.size();
    buf.resize(off + sizeof(T));
    std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
T
getLe(const uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/** Bounds-checked forward reader over a section payload. */
class Cursor
{
  public:
    Cursor(const uint8_t *base, size_t size) : p_(base), left_(size) {}

    template <typename T>
    bool
    read(T *out)
    {
        if (left_ < sizeof(T))
            return false;
        *out = getLe<T>(p_);
        p_ += sizeof(T);
        left_ -= sizeof(T);
        return true;
    }

    bool exhausted() const { return left_ == 0; }
    size_t left() const { return left_; }

  private:
    const uint8_t *p_;
    size_t left_;
};

/** One parsed section-table entry. */
struct Entry
{
    uint32_t kind = 0;
    uint32_t layer = 0;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
};

/** Per-stage core element count, with the shapes already validated. */
uint64_t
coreElems(const TtLayerConfig &cfg)
{
    uint64_t elems = 0;
    for (size_t h = 1; h <= cfg.d(); ++h)
        elems += static_cast<uint64_t>(cfg.coreRows(h)) *
                 cfg.coreCols(h);
    return elems;
}

/**
 * Non-fatal twin of TtLayerConfig::validate(), with size caps that
 * keep every later product comfortably inside uint64 — a hostile
 * artifact must be rejected, not overflow its way past bounds checks.
 */
bool
configError(const TtLayerConfig &cfg, std::string *err)
{
    auto fail = [&](std::string msg) {
        *err = std::move(msg);
        return true;
    };
    if (cfg.m.empty())
        return fail("config has no dimensions");
    if (cfg.m.size() > 64)
        return fail("implausible TT dimension count");
    if (cfg.n.size() != cfg.m.size())
        return fail("m and n factor counts differ");
    if (cfg.r.size() != cfg.m.size() + 1)
        return fail("rank count is not d+1");
    if (cfg.r.front() != 1 || cfg.r.back() != 1)
        return fail("boundary ranks must be 1");
    constexpr size_t kMaxFactor = size_t(1) << 20;
    for (size_t k = 0; k < cfg.d(); ++k)
        if (cfg.m[k] < 1 || cfg.n[k] < 1 || cfg.m[k] > kMaxFactor ||
            cfg.n[k] > kMaxFactor)
            return fail("factor out of range");
    for (size_t k = 0; k < cfg.r.size(); ++k)
        if (cfg.r[k] < 1 || cfg.r[k] > kMaxFactor)
            return fail("rank out of range");
    // Products that size sections and buffers must not overflow.
    double elems = 0;
    for (size_t h = 1; h <= cfg.d(); ++h)
        elems += double(cfg.coreRows(h)) * double(cfg.coreCols(h));
    if (elems > double(size_t(1) << 40))
        return fail("layer too large");
    return false;
}

bool
macFormatError(const MacFormat &f, std::string *err)
{
    auto bad = [&](const char *what) {
        *err = strCat("fxp metadata out of range (", what, ")");
        return true;
    };
    auto fmtOk = [](const FxpFormat &x) {
        return x.total_bits >= 1 && x.total_bits <= 16 &&
               x.frac_bits >= 0 && x.frac_bits <= 31;
    };
    if (!fmtOk(f.weight))
        return bad("weight format");
    if (!fmtOk(f.act_in))
        return bad("act_in format");
    if (!fmtOk(f.act_out))
        return bad("act_out format");
    if (f.acc_bits < 1 || f.acc_bits > 63)
        return bad("acc_bits");
    // Above 30 the rounded product (w * x + 2^(s-1)) overflows int32.
    if (f.product_shift < 0 || f.product_shift > kMaxProductShift)
        return bad("product_shift");
    return false;
}

void
padTo(std::vector<uint8_t> &buf, size_t align)
{
    while (buf.size() % align != 0)
        buf.push_back(0);
}

} // namespace

// ---------------------------------------------------------------- //
// Saving
// ---------------------------------------------------------------- //

TieLayerSpec
makeLayerSpec(const TtMatrix &tt)
{
    TieLayerSpec spec;
    spec.f64 = layerView(tt);
    return spec;
}

TieLayerSpec
makeLayerSpec(const TtMatrix &tt, const TtMatrixFxp &fxp)
{
    TieLayerSpec spec;
    spec.f64 = layerView(tt);
    TIE_CHECK_ARG(fxp.config == tt.config(),
                  "fxp twin has a different TT config than the float "
                  "layer");
    spec.fxp = layerView(fxp);
    return spec;
}

std::vector<uint8_t>
serializeTieModel(const std::vector<TieLayerSpec> &layers)
{
    TIE_CHECK_ARG(!layers.empty(), "a .tie model needs >= 1 layer");
    // Mirror the reader's cap: a save must never produce an artifact
    // its own loader refuses (the meta field is also only uint32).
    TIE_CHECK_ARG(layers.size() <= (size_t(1) << 16),
                  "a .tie model holds at most 65536 layers (got ",
                  layers.size(), ")");
    const size_t n_layers = layers.size();

    const bool fxp = !layers.front().fxp.cores.empty();
    for (size_t i = 0; i < n_layers; ++i) {
        const TieLayerSpec &s = layers[i];
        std::string err;
        if (configError(s.f64.cfg, &err))
            TIE_FATAL("layer ", i, ": ", err);
        err = checkCoreViews(s.f64.cfg, s.f64.cores);
        TIE_CHECK_ARG(err.empty(), "layer ", i, ": ", err);
        TIE_CHECK_ARG(s.fxp.cores.empty() == !fxp, "either every "
                      "layer carries fxp data or none does (layer ",
                      i, " differs)");
        if (fxp) {
            err = checkCoreViews(s.f64.cfg, s.fxp.cores);
            TIE_CHECK_ARG(err.empty(), "layer ", i, " fxp twin: ", err);
            TIE_CHECK_ARG(s.fxp.fmt.size() == s.f64.cfg.d(), "layer ", i,
                          " fxp twin must have d formats");
        }
        if (i + 1 < n_layers)
            TIE_CHECK_ARG(s.f64.cfg.outSize() ==
                              layers[i + 1].f64.cfg.inSize(),
                          "layer ", i, " outputs ",
                          s.f64.cfg.outSize(), " values but layer ",
                          i + 1, " consumes ",
                          layers[i + 1].f64.cfg.inSize());
    }

    // Payloads first (kind, layer, bytes) — offsets are assigned when
    // the image is assembled below.
    struct Payload
    {
        TieSection kind;
        uint32_t layer;
        std::vector<uint8_t> bytes;
    };
    std::vector<Payload> payloads;

    {
        std::vector<uint8_t> meta;
        appendLe<uint32_t>(meta, static_cast<uint32_t>(n_layers));
        appendLe<uint32_t>(meta, fxp ? kTieFlagFxp : 0u);
        payloads.push_back(
            {TieSection::ModelMeta, kTieModelScope, std::move(meta)});
    }
    {
        std::vector<uint8_t> graph;
        appendLe<uint64_t>(graph, n_layers);
        for (size_t i = 0; i < n_layers; ++i)
            appendLe<uint32_t>(graph, static_cast<uint32_t>(i));
        payloads.push_back(
            {TieSection::Graph, kTieModelScope, std::move(graph)});
    }
    for (size_t i = 0; i < n_layers; ++i) {
        const TieLayerSpec &s = layers[i];
        const TtLayerConfig &cfg = s.f64.cfg;
        const uint32_t li = static_cast<uint32_t>(i);

        std::vector<uint8_t> cb;
        appendLe<uint64_t>(cb, cfg.d());
        for (size_t v : cfg.m)
            appendLe<uint64_t>(cb, v);
        for (size_t v : cfg.n)
            appendLe<uint64_t>(cb, v);
        for (size_t v : cfg.r)
            appendLe<uint64_t>(cb, v);
        payloads.push_back({TieSection::LayerConfig, li, std::move(cb)});

        std::vector<uint8_t> cores;
        cores.reserve(coreElems(cfg) * sizeof(double));
        for (size_t h = 1; h <= cfg.d(); ++h) {
            const CoreView<double> &v = s.f64.cores[h - 1];
            const size_t bytes = v.rows * v.cols * sizeof(double);
            const size_t off = cores.size();
            cores.resize(off + bytes);
            std::memcpy(cores.data() + off, v.data, bytes);
        }
        payloads.push_back({TieSection::CoresF64, li, std::move(cores)});

        if (fxp) {
            std::vector<uint8_t> fm;
            for (const MacFormat &f : s.fxp.fmt) {
                appendLe<int32_t>(fm, f.weight.total_bits);
                appendLe<int32_t>(fm, f.weight.frac_bits);
                appendLe<int32_t>(fm, f.act_in.total_bits);
                appendLe<int32_t>(fm, f.act_in.frac_bits);
                appendLe<int32_t>(fm, f.acc_bits);
                appendLe<int32_t>(fm, f.product_shift);
                appendLe<int32_t>(fm, f.act_out.total_bits);
                appendLe<int32_t>(fm, f.act_out.frac_bits);
            }
            payloads.push_back({TieSection::FxpMeta, li, std::move(fm)});

            std::vector<uint8_t> qc;
            qc.reserve(coreElems(cfg) * sizeof(int16_t));
            for (size_t h = 1; h <= cfg.d(); ++h) {
                const CoreView<int16_t> &v = s.fxp.cores[h - 1];
                const size_t bytes = v.rows * v.cols * sizeof(int16_t);
                const size_t off = qc.size();
                qc.resize(off + bytes);
                std::memcpy(qc.data() + off, v.data, bytes);
            }
            payloads.push_back(
                {TieSection::CoresI16, li, std::move(qc)});
        }
    }

    // Assemble: header, section table, 64-byte-aligned payloads.
    const size_t n_sections = payloads.size();
    const size_t table_off = kTieHeaderSize;
    std::vector<uint8_t> img(table_off +
                             n_sections * kTieSectionEntrySize);

    for (size_t s = 0; s < n_sections; ++s) {
        padTo(img, kTieAlign);
        const uint64_t off = img.size();
        img.insert(img.end(), payloads[s].bytes.begin(),
                   payloads[s].bytes.end());
        const size_t e = table_off + s * kTieSectionEntrySize;
        putLe<uint32_t>(img, e + 0,
                        static_cast<uint32_t>(payloads[s].kind));
        putLe<uint32_t>(img, e + 4, payloads[s].layer);
        putLe<uint64_t>(img, e + 8, off);
        putLe<uint64_t>(img, e + 16, payloads[s].bytes.size());
        putLe<uint32_t>(img, e + 24,
                        crc32(payloads[s].bytes.data(),
                              payloads[s].bytes.size()));
        putLe<uint32_t>(img, e + 28, 0u);
    }

    std::memcpy(img.data(), kTieMagic, sizeof(kTieMagic));
    putLe<uint32_t>(img, 8, kTieByteOrder);
    putLe<uint32_t>(img, 12, kTieVersion);
    putLe<uint64_t>(img, 16, img.size());
    putLe<uint64_t>(img, 24, n_sections);
    putLe<uint64_t>(img, 32, table_off);
    putLe<uint32_t>(img, 40, crc32(img.data(), 40));
    // Bytes [44, 64) stay zero (reserved).
    return img;
}

void
saveTieModel(const std::vector<TieLayerSpec> &layers,
             const std::string &path)
{
    const std::vector<uint8_t> img = serializeTieModel(layers);
    // Write to a sibling temp file and rename: a crashed or raced
    // save never leaves a half-written artifact under the final name
    // (the loader would reject one anyway, but a registry watching
    // the path should only ever see complete files).
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        TIE_CHECK_ARG(os.is_open(), "cannot open ", tmp,
                      " for writing");
        os.write(reinterpret_cast<const char *>(img.data()),
                 static_cast<std::streamsize>(img.size()));
        TIE_CHECK_ARG(static_cast<bool>(os), "write failed: ", tmp);
    }
    TIE_CHECK_ARG(std::rename(tmp.c_str(), path.c_str()) == 0,
                  "cannot rename ", tmp, " to ", path);
}

void
saveTieModel(const TtMatrix &tt, const std::string &path)
{
    saveTieModel(std::vector<TieLayerSpec>{makeLayerSpec(tt)}, path);
}

// ---------------------------------------------------------------- //
// Loading
// ---------------------------------------------------------------- //

struct TieModel::Rep
{
    std::string path = "<memory>";
    std::vector<uint8_t> owned; ///< empty when mmap-backed
    void *map = nullptr;        ///< mmap base (or null)
    size_t map_len = 0;
    const uint8_t *base = nullptr;
    size_t size = 0;

    uint32_t flags = 0;
    std::vector<TieSectionInfo> section_info; ///< table order
    std::vector<uint32_t> order;             ///< execution order
    std::vector<TtLayerConfig> cfgs;         ///< by layer id
    std::vector<const double *> f64;         ///< by layer id
    std::vector<const int16_t *> i16;        ///< by layer id (fxp)
    std::vector<std::vector<MacFormat>> fmt; ///< by layer id (fxp)

    Rep() = default;
    Rep(const Rep &) = delete;
    Rep &operator=(const Rep &) = delete;

    ~Rep()
    {
        if (map != nullptr)
            ::munmap(map, map_len);
    }

    bool parse(std::string *err);
};

/**
 * Validate base/size as a v1 artifact and fill the parsed fields.
 * Returns false with *err set on the first violation.
 */
bool
TieModel::Rep::parse(std::string *err)
{
    Rep &rep = *this;
    auto fail = [&](std::string msg) {
        *err = strCat(rep.path, ": ", std::move(msg));
        return false;
    };
    const uint8_t *base = rep.base;
    const size_t size = rep.size;

    if (size < kTieHeaderSize)
        return fail("file smaller than the 64-byte header");
    if (std::memcmp(base, kTieMagic, sizeof(kTieMagic)) != 0)
        return fail("not a .tie artifact (bad magic)");
    if (getLe<uint32_t>(base + 8) != kTieByteOrder)
        return fail("byte-order sentinel mismatch (artifact written "
                    "on a byte-swapped host)");
    const uint32_t version = getLe<uint32_t>(base + 12);
    if (version != kTieVersion)
        return fail(strCat("unsupported .tie version ", version,
                           " (reader supports ", kTieVersion, ")"));
    if (getLe<uint32_t>(base + 40) != crc32(base, 40))
        return fail("header checksum mismatch");
    for (size_t i = 44; i < kTieHeaderSize; ++i)
        if (base[i] != 0)
            return fail("nonzero reserved header bytes");
    const uint64_t file_size = getLe<uint64_t>(base + 16);
    if (file_size != size)
        return fail(strCat("artifact is ", size, " bytes but the "
                           "header records ", file_size,
                           " (truncated file or trailing garbage)"));

    const uint64_t n_sections = getLe<uint64_t>(base + 24);
    const uint64_t table_off = getLe<uint64_t>(base + 32);
    if (n_sections == 0 || n_sections > (uint64_t(1) << 20))
        return fail("implausible section count");
    // Overflow-safe: table_off is attacker-controlled 64-bit, so the
    // sum form `table_off + n_sections * entry > size` could wrap.
    // n_sections is capped above, so the product alone cannot.
    if (table_off < kTieHeaderSize || table_off > size ||
        n_sections * kTieSectionEntrySize > size - table_off)
        return fail("section table out of bounds");
    const uint64_t table_end =
        table_off + n_sections * kTieSectionEntrySize;

    // Read and bounds/checksum-check every section entry.
    std::vector<Entry> entries(n_sections);
    for (uint64_t s = 0; s < n_sections; ++s) {
        const uint8_t *e =
            base + table_off + s * kTieSectionEntrySize;
        Entry &en = entries[s];
        en.kind = getLe<uint32_t>(e + 0);
        en.layer = getLe<uint32_t>(e + 4);
        en.offset = getLe<uint64_t>(e + 8);
        en.size = getLe<uint64_t>(e + 16);
        en.crc = getLe<uint32_t>(e + 24);
        if (getLe<uint32_t>(e + 28) != 0)
            return fail(strCat("section ", s,
                               ": nonzero reserved field"));
        if (en.offset < table_end || en.offset % kTieAlign != 0 ||
            en.offset > size || size - en.offset < en.size)
            return fail(strCat("section ", s,
                               ": payload out of bounds or "
                               "misaligned"));
        if (crc32(base + en.offset, en.size) != en.crc)
            return fail(strCat("section ", s, " (kind ", en.kind,
                               "): checksum mismatch — corrupt "
                               "artifact"));
        rep.section_info.push_back(
            {en.kind, en.layer, en.offset, en.size, en.crc});
    }

    // Sections must not overlap, and every byte outside the header,
    // table and payloads must be zero padding: together with the
    // header CRC, the reserved-zero checks and the per-section CRCs
    // this leaves no byte of the file integrity-unchecked.
    {
        std::vector<const Entry *> by_off;
        by_off.reserve(entries.size());
        for (const Entry &en : entries)
            by_off.push_back(&en);
        std::sort(by_off.begin(), by_off.end(),
                  [](const Entry *a, const Entry *b) {
                      return a->offset < b->offset;
                  });
        uint64_t pos = table_end;
        for (const Entry *en : by_off) {
            if (en->offset < pos)
                return fail("overlapping sections");
            for (uint64_t i = pos; i < en->offset; ++i)
                if (base[i] != 0)
                    return fail("nonzero padding between sections");
            pos = en->offset + en->size;
        }
        for (uint64_t i = pos; i < size; ++i)
            if (base[i] != 0)
                return fail("nonzero padding after the last section");
    }

    // Classify. Exactly one ModelMeta and one Graph; per-layer kinds
    // are collected by layer id after the count is known.
    const Entry *meta = nullptr;
    const Entry *graph = nullptr;
    for (const Entry &en : entries) {
        if (en.kind == static_cast<uint32_t>(TieSection::ModelMeta)) {
            if (meta != nullptr)
                return fail("duplicate ModelMeta section");
            if (en.layer != kTieModelScope)
                return fail("ModelMeta is not model-scope");
            meta = &en;
        } else if (en.kind ==
                   static_cast<uint32_t>(TieSection::Graph)) {
            if (graph != nullptr)
                return fail("duplicate Graph section");
            if (en.layer != kTieModelScope)
                return fail("Graph is not model-scope");
            graph = &en;
        } else if (en.kind <
                       static_cast<uint32_t>(TieSection::LayerConfig) ||
                   en.kind >
                       static_cast<uint32_t>(TieSection::CoresI16)) {
            return fail(strCat("unknown section kind ", en.kind));
        }
    }
    if (meta == nullptr)
        return fail("missing ModelMeta section");
    if (graph == nullptr)
        return fail("missing Graph section");

    uint32_t n_layers = 0;
    {
        Cursor c(base + meta->offset, meta->size);
        if (!c.read(&n_layers) || !c.read(&rep.flags) ||
            !c.exhausted())
            return fail("malformed ModelMeta section");
        if (n_layers == 0 || n_layers > (1u << 16))
            return fail("implausible layer count");
        if ((rep.flags & ~kTieFlagFxp) != 0)
            return fail("unknown model flags");
    }
    const bool fxp = (rep.flags & kTieFlagFxp) != 0;

    std::vector<const Entry *> cfg_sec(n_layers, nullptr);
    std::vector<const Entry *> f64_sec(n_layers, nullptr);
    std::vector<const Entry *> fm_sec(n_layers, nullptr);
    std::vector<const Entry *> i16_sec(n_layers, nullptr);
    for (const Entry &en : entries) {
        std::vector<const Entry *> *slot = nullptr;
        switch (static_cast<TieSection>(en.kind)) {
          case TieSection::LayerConfig:
            slot = &cfg_sec;
            break;
          case TieSection::CoresF64:
            slot = &f64_sec;
            break;
          case TieSection::FxpMeta:
            slot = &fm_sec;
            break;
          case TieSection::CoresI16:
            slot = &i16_sec;
            break;
          default:
            continue;
        }
        if (en.layer >= n_layers)
            return fail(strCat("section kind ", en.kind,
                               " references layer ", en.layer,
                               " of ", n_layers));
        if ((*slot)[en.layer] != nullptr)
            return fail(strCat("duplicate section kind ", en.kind,
                               " for layer ", en.layer));
        (*slot)[en.layer] = &en;
    }

    rep.cfgs.resize(n_layers);
    rep.f64.resize(n_layers, nullptr);
    rep.i16.resize(n_layers, nullptr);
    rep.fmt.resize(n_layers);

    for (uint32_t i = 0; i < n_layers; ++i) {
        if (cfg_sec[i] == nullptr)
            return fail(strCat("layer ", i, ": missing LayerConfig"));
        if (f64_sec[i] == nullptr)
            return fail(strCat("layer ", i, ": missing CoresF64"));
        if (fxp && (fm_sec[i] == nullptr || i16_sec[i] == nullptr))
            return fail(strCat("layer ", i, ": fxp flag set but "
                               "FxpMeta/CoresI16 missing"));
        if (!fxp && (fm_sec[i] != nullptr || i16_sec[i] != nullptr))
            return fail(strCat("layer ", i, ": fxp sections present "
                               "without the model fxp flag"));

        TtLayerConfig &cfg = rep.cfgs[i];
        {
            Cursor c(base + cfg_sec[i]->offset, cfg_sec[i]->size);
            uint64_t d = 0;
            if (!c.read(&d) || d == 0 || d > 64)
                return fail(strCat("layer ", i,
                                   ": malformed LayerConfig"));
            auto readVec = [&](std::vector<size_t> &v, uint64_t n) {
                v.resize(n);
                for (uint64_t k = 0; k < n; ++k) {
                    uint64_t x = 0;
                    if (!c.read(&x))
                        return false;
                    v[k] = static_cast<size_t>(x);
                }
                return true;
            };
            if (!readVec(cfg.m, d) || !readVec(cfg.n, d) ||
                !readVec(cfg.r, d + 1) || !c.exhausted())
                return fail(strCat("layer ", i,
                                   ": malformed LayerConfig"));
            std::string cerr;
            if (configError(cfg, &cerr))
                return fail(strCat("layer ", i, ": ", cerr));
        }

        const uint64_t elems = coreElems(cfg);
        if (f64_sec[i]->size != elems * sizeof(double))
            return fail(strCat("layer ", i, ": CoresF64 is ",
                               f64_sec[i]->size, " bytes, expected ",
                               elems * sizeof(double)));
        // Weights must be finite: a NaN or inf core would be served
        // as silently wrong outputs instead of failing here.
        for (uint64_t k = 0; k < elems; ++k)
            if (!std::isfinite(getLe<double>(base + f64_sec[i]->offset +
                                             k * sizeof(double))))
                return fail(strCat("layer ", i, ": CoresF64 element ",
                                   k, " is non-finite"));
        rep.f64[i] = reinterpret_cast<const double *>(
            base + f64_sec[i]->offset);

        if (fxp) {
            Cursor c(base + fm_sec[i]->offset, fm_sec[i]->size);
            std::vector<MacFormat> &fmts = rep.fmt[i];
            fmts.resize(cfg.d());
            for (size_t h = 0; h < cfg.d(); ++h) {
                MacFormat &f = fmts[h];
                if (!c.read(&f.weight.total_bits) ||
                    !c.read(&f.weight.frac_bits) ||
                    !c.read(&f.act_in.total_bits) ||
                    !c.read(&f.act_in.frac_bits) ||
                    !c.read(&f.acc_bits) ||
                    !c.read(&f.product_shift) ||
                    !c.read(&f.act_out.total_bits) ||
                    !c.read(&f.act_out.frac_bits))
                    return fail(strCat("layer ", i,
                                       ": malformed FxpMeta"));
                std::string ferr;
                if (macFormatError(f, &ferr))
                    return fail(strCat("layer ", i, " stage ", h + 1,
                                       ": ", ferr));
            }
            if (!c.exhausted())
                return fail(strCat("layer ", i,
                                   ": trailing bytes in FxpMeta"));
            const std::string chain = checkFormatChain(fmts, cfg.d());
            if (!chain.empty())
                return fail(strCat("layer ", i, ": ", chain));
            if (i16_sec[i]->size != elems * sizeof(int16_t))
                return fail(strCat("layer ", i, ": CoresI16 is ",
                                   i16_sec[i]->size,
                                   " bytes, expected ",
                                   elems * sizeof(int16_t)));
            rep.i16[i] = reinterpret_cast<const int16_t *>(
                base + i16_sec[i]->offset);
        }
    }

    // Graph: a permutation-free execution list whose chain interfaces
    // line up. v1 writers emit the identity chain, but the reader
    // only demands valid ids and matching interfaces.
    {
        Cursor c(base + graph->offset, graph->size);
        uint64_t n = 0;
        if (!c.read(&n) || n != n_layers)
            return fail("graph node count differs from layer count");
        rep.order.resize(n);
        for (uint64_t k = 0; k < n; ++k) {
            uint32_t id = 0;
            if (!c.read(&id))
                return fail("malformed Graph section");
            if (id >= n_layers)
                return fail(strCat("graph references layer ", id,
                                   " of ", n_layers));
            rep.order[k] = id;
        }
        if (!c.exhausted())
            return fail("trailing bytes in Graph section");
        for (uint64_t k = 0; k + 1 < n; ++k) {
            const TtLayerConfig &a = rep.cfgs[rep.order[k]];
            const TtLayerConfig &b = rep.cfgs[rep.order[k + 1]];
            if (a.outSize() != b.inSize())
                return fail(strCat("graph step ", k, ": layer ",
                                   rep.order[k], " outputs ",
                                   a.outSize(), " values but layer ",
                                   rep.order[k + 1], " consumes ",
                                   b.inSize()));
        }
    }
    return true;
}

bool
TieModel::tryLoad(const std::string &path, TieModel *out,
                  std::string *error)
{
    std::string local;
    std::string *err = error != nullptr ? error : &local;
    auto rep = std::make_shared<Rep>();
    rep->path = path;

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        *err = strCat("cannot open ", path, " for reading");
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        *err = strCat("cannot stat ", path);
        return false;
    }
    const size_t len = static_cast<size_t>(st.st_size);
    if (len == 0) {
        ::close(fd);
        *err = strCat(path, ": empty file");
        return false;
    }
    void *map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping outlives the descriptor
    if (map == MAP_FAILED) {
        *err = strCat("cannot mmap ", path);
        return false;
    }
    rep->map = map;
    rep->map_len = len;
    rep->base = static_cast<const uint8_t *>(map);
    rep->size = len;

    if (!rep->parse(err))
        return false; // ~Rep munmaps
    out->rep_ = std::move(rep);
    return true;
}

TieModel
TieModel::load(const std::string &path)
{
    TieModel m;
    std::string err;
    if (!tryLoad(path, &m, &err))
        TIE_FATAL(err);
    return m;
}

bool
TieModel::tryParse(std::vector<uint8_t> bytes, TieModel *out,
                   std::string *error)
{
    std::string local;
    std::string *err = error != nullptr ? error : &local;
    auto rep = std::make_shared<Rep>();
    rep->owned = std::move(bytes);
    rep->base = rep->owned.data();
    rep->size = rep->owned.size();
    if (!rep->parse(err))
        return false;
    out->rep_ = std::move(rep);
    return true;
}

TieModel
TieModel::parse(std::vector<uint8_t> bytes)
{
    TieModel m;
    std::string err;
    if (!tryParse(std::move(bytes), &m, &err))
        TIE_FATAL(err);
    return m;
}

const std::string &
TieModel::path() const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    return rep_->path;
}

bool
TieModel::mapped() const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    return rep_->map != nullptr;
}

size_t
TieModel::sizeBytes() const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    return rep_->size;
}

size_t
TieModel::layerCount() const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    return rep_->order.size();
}

bool
TieModel::hasFxp() const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    return (rep_->flags & kTieFlagFxp) != 0;
}

const std::vector<TieSectionInfo> &
TieModel::sections() const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    return rep_->section_info;
}

const char *
tieSectionKindName(uint32_t kind)
{
    switch (static_cast<TieSection>(kind)) {
      case TieSection::ModelMeta:
        return "ModelMeta";
      case TieSection::Graph:
        return "Graph";
      case TieSection::LayerConfig:
        return "LayerConfig";
      case TieSection::CoresF64:
        return "CoresF64";
      case TieSection::FxpMeta:
        return "FxpMeta";
      case TieSection::CoresI16:
        return "CoresI16";
    }
    return "?";
}

size_t
TieModel::inSize() const
{
    return config(0).inSize();
}

size_t
TieModel::outSize() const
{
    return config(layerCount() - 1).outSize();
}

const TtLayerConfig &
TieModel::config(size_t i) const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    TIE_CHECK_ARG(i < rep_->order.size(), "layer ", i, " of ",
                  rep_->order.size());
    return rep_->cfgs[rep_->order[i]];
}

TtLayerViewD
TieModel::layer(size_t i) const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    TIE_CHECK_ARG(i < rep_->order.size(), "layer ", i, " of ",
                  rep_->order.size());
    const uint32_t id = rep_->order[i];
    const TtLayerConfig &cfg = rep_->cfgs[id];
    TtLayerViewD v;
    v.cfg = cfg;
    v.cores.reserve(cfg.d());
    const double *p = rep_->f64[id];
    for (size_t h = 1; h <= cfg.d(); ++h) {
        const size_t rows = cfg.coreRows(h);
        const size_t cols = cfg.coreCols(h);
        v.cores.push_back({p, rows, cols});
        p += rows * cols;
    }
    return v;
}

std::vector<TtLayerViewD>
TieModel::layers() const
{
    std::vector<TtLayerViewD> out;
    out.reserve(layerCount());
    for (size_t i = 0; i < layerCount(); ++i)
        out.push_back(layer(i));
    return out;
}

TtFxpLayerView
TieModel::fxpLayer(size_t i) const
{
    TIE_CHECK_ARG(valid(), "TieModel is empty");
    TIE_CHECK_ARG(hasFxp(), "artifact ", rep_->path,
                  " carries no fxp sections");
    TIE_CHECK_ARG(i < rep_->order.size(), "layer ", i, " of ",
                  rep_->order.size());
    const uint32_t id = rep_->order[i];
    const TtLayerConfig &cfg = rep_->cfgs[id];
    TtFxpLayerView v;
    v.cfg = cfg;
    v.fmt = rep_->fmt[id];
    v.cores.reserve(cfg.d());
    const int16_t *p = rep_->i16[id];
    for (size_t h = 1; h <= cfg.d(); ++h) {
        const size_t rows = cfg.coreRows(h);
        const size_t cols = cfg.coreCols(h);
        v.cores.push_back({p, rows, cols});
        p += rows * cols;
    }
    return v;
}

TtMatrix
TieModel::toTtMatrix(size_t i) const
{
    const TtLayerViewD v = layer(i);
    TtMatrix tt(v.cfg);
    for (size_t h = 1; h <= v.cfg.d(); ++h) {
        const CoreView<double> &c = v.cores[h - 1];
        MatrixD g(c.rows, c.cols);
        std::memcpy(g.data(), c.data,
                    c.rows * c.cols * sizeof(double));
        tt.core(h) = TtCore(v.cfg.r[h - 1], v.cfg.m[h - 1],
                            v.cfg.n[h - 1], v.cfg.r[h], std::move(g));
    }
    return tt;
}

TtMatrixFxp
TieModel::toTtMatrixFxp(size_t i) const
{
    const TtFxpLayerView v = fxpLayer(i);
    TtMatrixFxp tt;
    tt.config = v.cfg;
    tt.stage_fmt = v.fmt;
    tt.cores.reserve(v.cfg.d());
    for (size_t h = 1; h <= v.cfg.d(); ++h) {
        const CoreView<int16_t> &c = v.cores[h - 1];
        Matrix<int16_t> g(c.rows, c.cols);
        std::memcpy(g.data(), c.data,
                    c.rows * c.cols * sizeof(int16_t));
        tt.cores.push_back(std::move(g));
    }
    return tt;
}

} // namespace io
} // namespace tie
