/**
 * @file
 * 28 nm technology model: per-event energies, component areas, and the
 * node-projection rules the paper uses for cross-accelerator
 * comparisons (Sec. 5.3: "linear, quadratic and constant scaling for
 * frequency, area and power").
 *
 * The paper obtained power/area from Synopsys DC/ICC/PrimeTime and
 * CACTI on a CMOS 28 nm library. Offline we substitute an analytic
 * model: per-op energies in the style of Horowitz (ISSCC'14) scaled
 * from 45 nm to 28 nm, and a CACTI-like sqrt-capacity SRAM curve. The
 * free calibration constants below are chosen once so the 16-PE TIE
 * configuration reproduces the paper's Table 6 breakdown (60.8 mW
 * memory / 10.9 mW register / 54 mW combinational / 29.1 mW clock,
 * 1.74 mm^2 total); the same constants then drive the EIE / CIRCNN /
 * Eyeriss baseline models. See DESIGN.md §5 (substitutions).
 */

#ifndef TIE_ARCH_TECH_MODEL_HH
#define TIE_ARCH_TECH_MODEL_HH

#include <cstddef>

#include "tt/cost_model.hh"

namespace tie {

/** Hardware configuration of a TIE instance (paper Table 5). */
struct TieArchConfig
{
    size_t n_pe = 16;                     ///< processing elements
    size_t n_mac = 16;                    ///< MAC units per PE
    size_t weight_sram_bytes = 16 * 1024; ///< 16 KB tensor-core SRAM
    size_t working_sram_bytes = kWorkingSramBytes; ///< per copy; two copies
    double freq_mhz = 1000.0;
    int data_bits = 16;
    int acc_bits = 24;
    /** Extra cycles charged at each stage boundary (control + pipeline
     *  drain of the accumulator/activation path). */
    size_t stage_switch_cycles = 4;

    size_t macsTotal() const { return n_pe * n_mac; }
};

/** Per-event energies in picojoules and component areas in mm^2. */
struct TechModel
{
    double node_nm = 28.0;

    // --- energy per event (pJ) ---
    double e_mac = 0.21;         ///< 16b multiply + 24b accumulate
    double e_reg_write = 0.021;  ///< one 16/24-bit register write
    double e_sram_base = 0.90;   ///< SRAM access floor (small array)
    double e_sram_per_sqrt_kb = 0.12; ///< + this * sqrt(capacity KB)
    double e_clock_per_flop = 0.00237; ///< clock tree, per clocked flop
                                       ///  per cycle
    double e_dram_per_bit = 20.0;      ///< off-chip access (baselines)

    // --- area (mm^2) ---
    double a_sram_per_kb = 0.001645;  ///< dense on-chip SRAM macro
    double a_mac = 0.000320;          ///< one 16b x 16b MAC
    double a_flop = 1.55e-6;          ///< one flip-flop (registers)
    double a_clock_network = 0.0035;  ///< top-level clock spine
    double a_other_frac = 0.25;       ///< routing/ctrl overhead fraction
                                      ///  of core area (layout "Other")

    /** Energy of one @p word_bits-wide access to an SRAM of the given
     *  capacity (larger arrays burn more per access). */
    double sramAccessPj(size_t capacity_bytes, int word_bits) const;

    /** Area of an SRAM macro of the given capacity. */
    double sramAreaMm2(size_t capacity_bytes) const;

    /** Default 28 nm model (calibrated against paper Table 6). */
    static TechModel cmos28();
};

/**
 * Node projection rules from paper Sec. 5.3: frequency scales
 * linearly with feature size, area quadratically, power is kept
 * constant.
 */
struct NodeProjection
{
    static double frequencyMhz(double f, double from_nm, double to_nm);
    static double areaMm2(double a, double from_nm, double to_nm);
    static double powerMw(double p, double from_nm, double to_nm);
};

/**
 * Total clocked flip-flops in the TIE datapath: per MAC the 24-bit
 * accumulator, a 16-bit operand staging register and ~8 bits of
 * control/pipeline state.
 */
size_t tieFlopCount(const TieArchConfig &cfg);

/** Static area/power breakdown for a TIE instance (Tables 5/6). */
struct TieFloorplan
{
    double area_memory_mm2 = 0.0;
    double area_register_mm2 = 0.0;
    double area_combinational_mm2 = 0.0;
    double area_clock_mm2 = 0.0;
    double area_other_mm2 = 0.0;

    double totalAreaMm2() const;

    /** Build from a configuration and technology model. */
    static TieFloorplan build(const TieArchConfig &cfg,
                              const TechModel &tech);
};

} // namespace tie

#endif // TIE_ARCH_TECH_MODEL_HH
