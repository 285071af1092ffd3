#pragma once

/**
 * @file
 * Paper-scale workload descriptors (Tables 4, 7, 8, 9).
 *
 * These describe the *real* model architectures the paper deploys (JARVIS-1
 * planner/controller, OpenVLA, RoboFlamingo, RT-1, Octo, entropy predictor)
 * as GEMM lists for the analytical perf/energy model. The behavioural
 * simulation uses small trainable stand-ins (README "Substitutions" #1),
 * but all Joule-level results are computed at these paper-scale costs so
 * Figs. 16-18 and Table 3 keep the paper's magnitudes.
 *
 * Each descriptor carries the paper's reported params/GOps alongside the
 * analytically derived ones so benches can print both columns.
 */

#include <string>
#include <vector>

#include "perf/scalesim.hpp"

namespace create {

/** One deployable network, as seen by the accelerator. */
struct Workload
{
    std::string name;
    std::vector<GemmShape> gemms;  //!< all GEMMs of one inference
    bool weightsResident = false;  //!< controller weights pinned in SRAM
    double inputDramBytes = 0.0;   //!< e.g. camera frame fetch
    double paperParamsM = 0.0;     //!< Table 4 reported
    double paperGops = 0.0;        //!< Table 4 reported (INT8 ops)

    /** Analytic parameter count in millions (sum of K*N). */
    double analyticParamsM() const;

    /** Analytic giga-MACs for one inference. */
    double analyticGmacs() const;
};

namespace workloads {

/** LLaMA-style planner (Table 7) with prefill+decode token counts. */
Workload planner(const std::string& name, int layers, int hidden, int mlp,
                 int vocab, int prefillTokens, int decodeTokens,
                 double paperParamsM, double paperGops);

/** Conv stack + transformer-decoder controller (Table 8 shape). */
Workload controller(const std::string& name, int imageRes, int convChannels,
                    int decLayers, int decHidden, int decMlp, int seqLen,
                    double paperParamsM, double paperGops);

// Paper instances ------------------------------------------------------
Workload jarvisPlanner();    //!< 32 x (4096 / 14336), 740+251 tokens
Workload openVla();          //!< 32 x (4096 / 11008), 617+71 tokens
Workload roboFlamingo();     //!< 24 x (2048 / 8192), 505+61 tokens
Workload jarvisController(); //!< 128px conv + 4 x 1024/4096 decoder
Workload rt1();              //!< 224px, MaxViT-ish budget
Workload octo();             //!< 224px, ViT-ish budget
Workload entropyPredictor(); //!< Table 9 CNN+MLP

// Navigation platform instances (third family; drone-scale budgets) ----
Workload navLlama();   //!< 22 x (2048 / 5632), 430+48 tokens, ~1.2B params
Workload pathRt();     //!< 176px tower + 6 x 384/1536 decoder
Workload swiftPilot(); //!< 160px tower + 4 x 320/1280 decoder

/** Helper: conv layer as an im2col GEMM shape. */
GemmShape convGemm(int inHw, int cin, int cout, int k, int stride, int pad);

} // namespace workloads

} // namespace create
