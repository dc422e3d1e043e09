#include "workloads/paper_models.h"

#include "support/error.h"
#include "synth/dfg_generator.h"

namespace amdrel::workloads {

namespace {

/// Builds the CDFG skeleton: entry stub -> each block in sequence, where
/// loop-resident blocks carry a self back-edge (making them natural-loop
/// headers, hence kernels candidates), ending in an exit stub.
PaperApp build_app(const std::string& name,
                   std::vector<PaperBlockSpec> specs,
                   std::uint64_t base_seed) {
  PaperApp app;
  app.cdfg = ir::Cdfg(name);

  const ir::BlockId entry = app.cdfg.add_block("entry");
  app.cdfg.set_entry(entry);
  app.profile.set_count(entry, 1);

  ir::BlockId prev = entry;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const PaperBlockSpec& spec = specs[i];
    const ir::BlockId id = app.cdfg.add_block(spec.label);

    synth::DfgGenConfig config;
    config.mul_ops = spec.mul;
    config.alu_ops = spec.alu;
    config.load_ops = spec.mem - spec.mem / 3;
    config.store_ops = spec.mem / 3;
    config.live_ins = spec.live_in;
    config.live_outs = spec.live_out;
    config.consts = 2;
    config.target_width = spec.width;
    config.seed = base_seed + i * 7919;
    app.cdfg.block(id).dfg = synth::generate_dfg(config);

    app.cdfg.add_edge(prev, id);
    if (spec.in_loop) app.cdfg.add_edge(id, id);  // self loop
    app.profile.set_count(id, spec.exec_freq);
    prev = id;
  }
  const ir::BlockId exit = app.cdfg.add_block("exit");
  app.cdfg.add_edge(prev, exit);
  app.profile.set_count(exit, 1);

  app.cdfg.analyze_loops();
  app.cdfg.validate();
  app.specs = std::move(specs);
  return app;
}

}  // namespace

ir::BlockId PaperApp::block_by_label(const std::string& label) const {
  for (const ir::BasicBlock& block : cdfg.blocks()) {
    if (block.name == label) return block.id;
  }
  fail("PaperApp::block_by_label: no block named " + label);
}

PaperApp build_ofdm_model() {
  // Top-8 rows of Table 1 (exec_freq and op weight = alu + 2*mul are the
  // paper's exact values); mem/live/width are modelling assumptions for
  // the IFFT-dominated front-end.
  std::vector<PaperBlockSpec> specs = {
      // label        freq   mul alu mem  li lo width loop
      {"BB22", 336, 30, 55, 8, 7, 2, 8, true},     // IFFT butterfly stage
      {"BB12", 1200, 6, 13, 3, 3, 1, 4, true},     // QAM constellation map
      {"BB3", 864, 1, 4, 1, 2, 1, 3, true},        // symbol scaling
      {"BB5", 370, 2, 8, 2, 3, 1, 3, true},        // twiddle update
      {"BB42", 800, 0, 5, 1, 3, 1, 3, true},       // cyclic-prefix copy
      {"BB32", 560, 1, 4, 1, 3, 1, 3, true},       // reorder
      {"BB29", 448, 1, 5, 1, 3, 1, 3, true},       // bit-reverse index
      {"BB21", 147, 4, 10, 3, 3, 1, 4, true},      // stage setup
      // The paper reports 18 blocks but tabulates only the heaviest 8;
      // the 10 below are assumptions with total weights < 2646.
      {"BB25", 336, 0, 4, 1, 2, 1, 3, true},       // 1344
      {"BB15", 96, 3, 7, 2, 3, 1, 3, true},        // 1248
      {"BB11", 200, 0, 6, 1, 2, 1, 3, true},       // 1200
      {"BB9", 128, 1, 7, 1, 3, 1, 3, true},        // 1152
      {"BB35", 80, 2, 6, 1, 3, 1, 3, true},        // 800
      {"BB4", 48, 2, 7, 1, 3, 1, 3, true},         // 528
      {"BB7", 64, 0, 8, 1, 2, 1, 3, true},         // 512
      {"BB18", 24, 4, 8, 2, 3, 1, 3, true},        // 384
      {"BB2", 1, 2, 10, 3, 2, 1, 3, false},        // init (14)
      {"BB1", 1, 0, 9, 2, 2, 1, 3, false},         // init (9)
  };
  return build_app("ofdm_tx", std::move(specs), /*base_seed=*/0x0FD31101u);
}

PaperApp build_jpeg_model() {
  std::vector<PaperBlockSpec> specs = {
      // label        freq    mul alu mem  li lo width loop
      {"BB6", 355024, 1, 1, 4, 5, 3, 2, true},     // DCT MAC inner step
      {"BB2", 8192, 24, 37, 24, 8, 4, 8, true},    // DCT row pass
      {"BB1", 8192, 24, 35, 24, 8, 4, 8, true},    // DCT column pass
      {"BB22", 65536, 1, 3, 5, 3, 1, 3, true},     // zig-zag scan step
      {"BB8", 30927, 0, 8, 8, 4, 2, 3, true},      // entropy emit
      {"BB3", 65536, 1, 1, 4, 3, 1, 2, true},      // quantize (recip-mul)
      {"BB16", 63540, 0, 3, 5, 3, 1, 3, true},     // coefficient classify
      {"BB17", 63540, 0, 2, 5, 3, 1, 2, true},     // run-length update
      // 14 further blocks (assumptions, total weights < 127080):
      {"BB4", 8192, 2, 8, 6, 4, 2, 3, true},       // 98304
      {"BB5", 8192, 1, 7, 3, 3, 1, 3, true},       // 73728
      {"BB15", 63540, 0, 1, 4, 2, 1, 2, true},     // 63540
      {"BB9", 30927, 0, 2, 5, 2, 1, 2, true},      // 61854
      {"BB14", 4096, 1, 4, 2, 3, 1, 3, true},      // 24576
      {"BB7", 1024, 4, 12, 6, 4, 2, 4, true},      // 20480
      {"BB10", 1024, 3, 9, 4, 3, 1, 3, true},      // 15360
      {"BB11", 1024, 0, 8, 3, 3, 1, 3, true},      // 8192
      {"BB13", 1024, 0, 5, 2, 2, 1, 3, true},      // 5120
      {"BB12", 256, 4, 10, 5, 4, 2, 3, true},      // 4608
      {"BB18", 1024, 0, 4, 2, 2, 1, 3, true},      // 4096
      {"BB19", 64, 5, 15, 8, 4, 2, 4, true},       // 1600
      {"BB20", 1, 6, 18, 10, 4, 2, 4, false},      // table init (30)
      {"BB21", 1, 4, 14, 8, 4, 2, 4, false},       // header emit (22)
  };
  return build_app("jpeg_enc", std::move(specs), /*base_seed=*/0x01BE6102u);
}

std::vector<core::CorpusApp> paper_corpus() {
  std::vector<core::CorpusApp> corpus(2);
  PaperApp ofdm = build_ofdm_model();
  corpus[0].name = "ofdm";
  corpus[0].cdfg = std::move(ofdm.cdfg);
  corpus[0].profile = std::move(ofdm.profile);
  PaperApp jpeg = build_jpeg_model();
  corpus[1].name = "jpeg";
  corpus[1].cdfg = std::move(jpeg.cdfg);
  corpus[1].profile = std::move(jpeg.profile);
  return corpus;
}

}  // namespace amdrel::workloads
