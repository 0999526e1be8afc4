/**
 * @file
 * Figure 4: full-batch vs small-mini-batch training statistics.
 *
 * Reducing the batch size does cut memory, but it changes the
 * effective batch size: the mini-batch run steps the optimizer per
 * batch, producing a noisier loss and drifting test accuracy — the
 * paper's motivation for micro-batches (which Figure 13 /
 * bench_convergence shows do NOT have this problem).
 */
#include <cmath>
#include <cstdio>

#include "bench_common.h"

int
main()
{
    using namespace betty;
    using namespace betty::benchutil;

    std::printf("Figure 4: full-batch vs small mini-batch training, "
                "SAGE + Mean, products_like\n");
    // A noisy variant of products_like: with easily separable
    // features both regimes hit 100% accuracy and the statistical
    // difference is invisible; noise keeps the problem hard, like the
    // real ogbn-products.
    SyntheticSpec spec = productsSpec();
    spec.numNodes = 5000;
    spec.featureNoise = 4.0;
    spec.homophily = 0.5;
    const Dataset ds = makeSyntheticDataset(spec, 42);

    SageConfig cfg;
    cfg.inputDim = ds.featureDim();
    cfg.hiddenDim = 16;
    cfg.numClasses = ds.numClasses;
    cfg.numLayers = 2;
    cfg.seed = 5;

    const std::vector<int64_t> fanouts = {5, 10};
    const int num_minibatches = 16;
    const int epochs = 40;

    // Full-batch setup.
    GraphSage full_model(cfg);
    Adam full_adam(full_model.parameters(), 0.05f);
    Trainer full_trainer(ds, full_model, full_adam);
    NeighborSampler full_sampler(ds.graph, fanouts, 7);
    const auto full = full_sampler.sample(ds.trainNodes);

    // Mini-batch setup: same graph, 16 independently sampled batches,
    // optimizer step per batch (same hyperparameters — the point).
    GraphSage mini_model(cfg);
    Adam mini_adam(mini_model.parameters(), 0.05f);
    Trainer mini_trainer(ds, mini_model, mini_adam);
    NeighborSampler mini_sampler(ds.graph, fanouts, 8);
    std::vector<std::vector<int64_t>> mini_seed_groups(
        num_minibatches);
    for (size_t i = 0; i < ds.trainNodes.size(); ++i)
        mini_seed_groups[i % num_minibatches].push_back(
            ds.trainNodes[i]);

    // Test batch for accuracy tracking.
    NeighborSampler test_sampler(ds.graph, fanouts, 9);
    const auto test_batch = test_sampler.sample(ds.testNodes);

    TablePrinter table("loss / test accuracy per epoch");
    table.setHeader({"epoch", "full_loss", "full_test_acc",
                     "mini_loss", "mini_test_acc"});
    double full_var = 0.0, mini_var = 0.0, prev_full = -1.0,
           prev_mini = -1.0;
    std::vector<double> full_accs, mini_accs; // late-stage tracking
    for (int epoch = 1; epoch <= epochs; ++epoch) {
        const auto full_stats =
            full_trainer.trainMicroBatches({full});
        std::vector<MultiLayerBatch> minis;
        for (const auto& seeds : mini_seed_groups)
            minis.push_back(mini_sampler.sample(seeds));
        // One optimizer step per mini-batch; the epoch loss is the
        // output-weighted mean of the batch losses.
        double mini_loss = 0.0;
        int64_t mini_outputs = 0;
        for (const auto& mini : minis) {
            const int64_t outputs = int64_t(mini.outputNodes().size());
            mini_loss += mini_trainer.trainMicroBatches({mini}).loss *
                         double(outputs);
            mini_outputs += outputs;
        }
        mini_loss /= double(mini_outputs);

        const double full_acc = full_trainer.evaluate(test_batch);
        const double mini_acc = mini_trainer.evaluate(test_batch);
        table.addRow({std::to_string(epoch),
                      TablePrinter::num(full_stats.loss, 4),
                      TablePrinter::num(full_acc, 4),
                      TablePrinter::num(mini_loss, 4),
                      TablePrinter::num(mini_acc, 4)});
        if (prev_full >= 0.0 && epoch > epochs / 2) {
            full_var += std::abs(full_stats.loss - prev_full);
            mini_var += std::abs(mini_loss - prev_mini);
            full_accs.push_back(full_acc);
            mini_accs.push_back(mini_acc);
        }
        prev_full = full_stats.loss;
        prev_mini = mini_loss;
    }
    table.print();

    auto stddev = [](const std::vector<double>& v) {
        double mean = 0.0;
        for (double x : v)
            mean += x;
        mean /= double(v.size());
        double var = 0.0;
        for (double x : v)
            var += (x - mean) * (x - mean);
        return std::sqrt(var / double(v.size()));
    };
    std::printf("\nsecond-half mean |loss delta| per epoch: full=%.4f "
                "mini=%.4f\n",
                full_var / double(epochs / 2),
                mini_var / double(epochs / 2));
    std::printf("second-half test-accuracy stddev: full=%.4f "
                "mini=%.4f\n",
                stddev(full_accs), stddev(mini_accs));
    std::printf("Shape target: the mini-batch loss moves faster early "
                "but is the noisier curve; its statistics differ from "
                "full-batch under identical hyperparameters.\n");
    return 0;
}
