#include "tt/stage_program.hh"

#include "common/logging.hh"

namespace tie {

LayerProgram
LayerProgram::compile(const TtLayerConfig &cfg, bool relu_last)
{
    cfg.validate();
    LayerProgram prog;
    prog.layer = cfg;
    prog.stages.reserve(cfg.d());

    for (size_t h = cfg.d(); h >= 1; --h) {
        StageDescriptor d;
        d.core_index = static_cast<uint32_t>(h);
        d.rows = static_cast<uint32_t>(cfg.coreRows(h));
        d.inner = static_cast<uint32_t>(cfg.coreCols(h));
        d.cols = static_cast<uint32_t>(cfg.stageCols(h));
        d.relu = relu_last && h == 1;

        d.identity = h == cfg.d();
        if (!d.identity) {
            d.r = static_cast<uint32_t>(cfg.r[h]);
            d.m_next = static_cast<uint32_t>(cfg.m[h]);
            d.src_cols = static_cast<uint32_t>(cfg.stageCols(h + 1));
            d.src_seg = d.src_cols / static_cast<uint32_t>(cfg.n[h - 1]);
        }
        d.store_identity = h == 1;
        if (!d.store_identity) {
            d.r_out = static_cast<uint32_t>(cfg.r[h - 1]);
            d.m_out = static_cast<uint32_t>(cfg.m[h - 1]);
            d.seg = d.cols / static_cast<uint32_t>(cfg.n[h - 2]);
            d.dst_cols = static_cast<uint32_t>(cfg.stageCols(h - 1));
        }
        prog.stages.push_back(d);
    }
    return prog;
}

std::pair<uint32_t, uint32_t>
operandSource(const StageDescriptor &d, uint32_t k, uint32_t q)
{
    TIE_REQUIRE(k < d.inner && q < d.cols,
                "address generator input out of stage range");
    if (d.identity)
        return {k, q};

    // k = j_h * r + t ; q = c * m_next + i_next.
    const uint32_t j = k / d.r;
    const uint32_t t = k % d.r;
    const uint32_t i_next = q % d.m_next;
    const uint32_t c = q / d.m_next;

    const uint32_t src_row = i_next * d.r + t;
    const uint32_t src_col = j * d.src_seg + c;
    TIE_REQUIRE(src_col < d.src_cols, "address generator overflow");
    return {src_row, src_col};
}

std::pair<size_t, size_t>
operandDest(const StageDescriptor &d, size_t p, size_t q)
{
    TIE_REQUIRE(p < d.rows, "address generator input out of stage range");
    if (d.store_identity)
        return {p, q};

    // p = i_h * r_out + t ; q = b * cols + j * seg + c.
    const size_t i = p / d.r_out;
    const size_t t = p % d.r_out;
    const size_t b = q / d.cols;
    const size_t qq = q % d.cols;
    const size_t j = qq / d.seg;
    const size_t c = qq % d.seg;
    return {j * d.r_out + t, b * d.dst_cols + c * d.m_out + i};
}

} // namespace tie
