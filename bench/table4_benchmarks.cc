/**
 * @file
 * Regenerates paper Table 4: the evaluated benchmark layers with their
 * sizes, TT settings and compression ratios, plus the storage
 * footprints that justify the Table-5 SRAM budget.
 */

#include <iostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/workloads.hh"
#include "tt/cost_model.hh"

#include "obs/report.hh"

using namespace tie;

namespace {

std::string
vec(const std::vector<size_t> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(v[i]);
    }
    return s + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    // --stats-json / --trace-out / TIE_STATS_JSON / TIE_TRACE: emit
    // every printed table (and any trace) machine-readably.
    obs::Session obs_session("table4_benchmarks", &argc, argv);

    std::cout << "== Table 4: evaluated benchmarks ==\n\n";

    TextTable t("benchmark layers");
    t.header({"layer", "size", "d", "n", "m", "r", "CR", "paper CR",
              "task"});
    struct PaperCr
    {
        const char *name;
        const char *cr;
    };
    const char *paper_cr[] = {"50972x", "14564x", "4954x", "4608x"};
    size_t i = 0;
    for (const auto &b : workloads::table4Benchmarks()) {
        t.row({b.name,
               strCat("(", b.config.outSize(), ", ", b.config.inSize(),
                      ")"),
               std::to_string(b.config.d()), vec(b.config.n),
               vec(b.config.m), vec(b.config.r),
               TextTable::ratio(b.config.compressionRatio(), 0),
               paper_cr[i++], b.task});
    }
    t.print();

    std::cout << "\n";
    TextTable s("storage footprints (16-bit words)");
    s.header({"layer", "TT params", "weight KB", "fits 16 KB?",
              "peak intermediate KB", "fits 384 KB?"});
    for (const auto &b : workloads::table4Benchmarks()) {
        const double wkb = b.config.ttParamCount() * 2.0 / 1024.0;
        const double ikb = workingBufferElems(b.config) * 2.0 / 1024.0;
        s.row({b.name, std::to_string(b.config.ttParamCount()),
               TextTable::num(wkb, 2), wkb <= 16.0 ? "yes" : "NO",
               TextTable::num(ikb, 1), ikb <= 384.0 ? "yes" : "NO"});
    }
    s.print();
    return 0;
}
