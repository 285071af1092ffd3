#pragma once

/**
 * @file
 * Voltage-underscaling error models (paper Sec. 3.1, Fig. 4a).
 *
 * Two abstractions are provided, matching the paper's methodology:
 *
 *  - UniformErrorModel: every accumulator bit flips with the same
 *    probability (the BER). Used for resilience *characterization*
 *    (Sec. 4) to keep conclusions hardware-independent.
 *
 *  - TimingErrorModel: a per-bit, per-voltage flip-probability look-up
 *    table derived from a carry-chain delay model. Higher bits sit at the
 *    end of longer carry chains, so they violate timing first as voltage
 *    drops; this reproduces Fig. 4(a)'s "higher bits exhibit frequent
 *    large timing errors" pattern. Used for *evaluation* (Sec. 6) where
 *    energy is tied to an operating voltage.
 *
 * The paper extracted its LUT from a synthesized 22 nm 8-bit-multiplier /
 * 24-bit-accumulator systolic array via PrimeTime+HSPICE; we substitute a
 * parametric alpha-power-law delay model calibrated to the same qualitative
 * anchors (BER ~0 at the 0.9 V nominal, ~1e-7 at 0.85 V, ~1e-4 at 0.75 V,
 * ~1e-2 at 0.65 V). See README "Substitutions" #3.
 */

#include <array>
#include <vector>

namespace create {

/** Accumulator width of the modeled datapath (8x8 multiplier, 24-bit acc). */
constexpr int kAccumulatorBits = 24;

/** Interface: per-bit flip probabilities for one GEMM output element. */
class ErrorModel
{
  public:
    virtual ~ErrorModel() = default;

    /** Flip probability of accumulator bit `bit` (0 = LSB). */
    virtual double bitRate(int bit) const = 0;

    /** All per-bit rates, LSB first. */
    std::vector<double> bitRates() const;

    /** Average flip probability across bits (the scalar "BER"). */
    double meanBitRate() const;
};

/** Uniform random bit-flip model parameterized by a single BER. */
class UniformErrorModel : public ErrorModel
{
  public:
    explicit UniformErrorModel(double ber) : ber_(ber) {}
    double bitRate(int) const override { return ber_; }
    double ber() const { return ber_; }

  private:
    double ber_;
};

/**
 * Voltage-dependent per-bit timing-error model.
 *
 * Bit b's critical path has normalized delay D(b) growing with carry depth;
 * lowering VDD stretches delays by the alpha-power law
 * k(V) = (V/Vnom) * ((Vnom - Vt)/(V - Vt))^alpha. A bit whose stretched
 * delay exceeds the clock period flips with probability given by a logistic
 * in the (negative) slack, capped by an activity factor (a path only
 * produces a wrong value when its inputs toggle).
 */
class TimingErrorModel : public ErrorModel
{
  public:
    /** Model at a specific operating voltage (volts). */
    explicit TimingErrorModel(double voltage);

    double bitRate(int bit) const override;

    double voltage() const { return voltage_; }

    /** Mean BER across bits for a voltage, without building an instance. */
    static double berAtVoltage(double voltage);

    /** Nominal supply (22 nm PDK per the paper). */
    static constexpr double kNominalVoltage = 0.90;
    static constexpr double kMinVoltage = 0.60;

  private:
    double voltage_;
    std::array<double, kAccumulatorBits> rates_{};
};

} // namespace create
