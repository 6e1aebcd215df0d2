#include "flb/platform/cost_model.hpp"

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flb/algos/dls.hpp"
#include "flb/algos/dsc.hpp"
#include "flb/algos/duplication.hpp"
#include "flb/algos/etf.hpp"
#include "flb/algos/heft.hpp"
#include "flb/algos/mapping.hpp"
#include "flb/algos/sarkar.hpp"
#include "flb/core/flb.hpp"
#include "flb/platform/speed_profile.hpp"
#include "flb/sched/scheduler.hpp"
#include "flb/sched/hetero.hpp"
#include "flb/sched/repair.hpp"
#include "flb/sched/validator.hpp"
#include "flb/sim/machine_sim.hpp"
#include "flb/sim/topology.hpp"
#include "flb/util/digest.hpp"
#include "flb/util/error.hpp"
#include "flb/workloads/paper_example.hpp"
#include "flb/workloads/workloads.hpp"
#include "test_support.hpp"

namespace flb {
namespace {

using platform::Availability;
using platform::CommMode;
using platform::CostModel;
using platform::LinkOccupancy;
using platform::SpeedProfile;

// ---------------------------------------------------------------------------
// Golden bit-identity regression. The refactor's central promise: pricing
// clique-mode FLB through platform::CostModel changes NOTHING — not merely
// "equal makespans" but the same placements with bit-identical start/finish
// times. The digests below were captured from the pre-refactor engine.
// A failure here means the CostModel arithmetic drifted from the former
// private copy (e.g. an added `* 1.0` reordering, a max() flipped).

std::uint64_t schedule_digest(const Schedule& s) {
  Fnv1a h;
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    h.u64(s.proc(t));
    h.f64(s.start(t));
    h.f64(s.finish(t));
  }
  return h.value();
}

TEST(PlatformGolden, PaperExampleBitIdentical) {
  TaskGraph g = paper_example_graph();
  FlbScheduler flb;
  Schedule s = flb.run(g, 2);
  EXPECT_EQ(s.makespan(), 0x1.cp+3);
  EXPECT_EQ(schedule_digest(s), 5113259804641662334ull);
}

struct Golden {
  std::size_t fuzz_index;
  ProcId procs;
  double makespan;  // exact bits, captured pre-refactor
  std::uint64_t digest;
};

TEST(PlatformGolden, FuzzCorpusBitIdentical) {
  static const Golden kTable[] = {
      {0, 2, 0x1.5dc8027d3557fp+3, 6163402817620380191ull},
      {0, 4, 0x1.d550f6a3c200ep+2, 11984822218006859182ull},
      {0, 8, 0x1.cff4a4a4cbd88p+2, 7677375797997336011ull},
      {1, 2, 0x1.46858f397f60ep+3, 868977671700199420ull},
      {1, 4, 0x1.3670f364c0c88p+3, 8841111725626044235ull},
      {1, 8, 0x1.3670f364c0c88p+3, 14809793358818105679ull},
      {2, 2, 0x1.fa272025984d8p+4, 5508825296550152750ull},
      {2, 4, 0x1.fa272025984d8p+4, 10482687934106115347ull},
      {2, 8, 0x1.fa272025984d8p+4, 10482687934106115347ull},
      {3, 2, 0x1.02d7ad895cc41p+3, 13063748773484960717ull},
      {3, 4, 0x1.c318689a5ddc8p+2, 12371456930988836003ull},
      {3, 8, 0x1.c318689a5ddc8p+2, 4290929887168875626ull},
      {4, 2, 0x1.0e0606b5ebf5p+4, 1317999482311433074ull},
      {4, 4, 0x1.0e0606b5ebf5p+4, 16569072749546089919ull},
      {4, 8, 0x1.0e0606b5ebf5p+4, 16569072749546089919ull},
      {5, 2, 0x1.2a37db85ef14ap+4, 712509713851413856ull},
      {5, 4, 0x1.2a37db85ef14ap+4, 712509713851413856ull},
      {5, 8, 0x1.2a37db85ef14ap+4, 712509713851413856ull},
      {6, 2, 0x1.10c209b6df015p+4, 4087980554848760377ull},
      {6, 4, 0x1.c6c4f8af08d6ap+3, 5142832088180793264ull},
      {6, 8, 0x1.c6c4f8af08d6ap+3, 14266918385966217797ull},
      {7, 2, 0x1.99de8f1c62b1fp+3, 6214158040572120765ull},
      {7, 4, 0x1.312b659f0c8a2p+3, 10574706086649598071ull},
      {7, 8, 0x1.02bf97a682b29p+3, 10778113853671602819ull},
  };
  for (const Golden& row : kTable) {
    TaskGraph g = test::fuzz_graph(row.fuzz_index);
    FlbScheduler flb;
    Schedule s = flb.run(g, row.procs);
    EXPECT_EQ(s.makespan(), row.makespan)
        << "fuzz[" << row.fuzz_index << "] P=" << row.procs << " ("
        << g.name() << ")";
    EXPECT_EQ(schedule_digest(s), row.digest)
        << "fuzz[" << row.fuzz_index << "] P=" << row.procs << " ("
        << g.name() << ")";
  }
}

// Paper-scale goldens: the Fig. 2 families at V~2000 (make_workload, seed
// 1) x CCR {0.2, 5} x P in {2..32}. The fuzz graphs above are small enough
// that the EP lists rarely hold more than a few tasks; these runs push
// thousands of tasks through every heap, so an engine change that reorders
// even one tie shows up here. Captured from the engine before the heaps
// stored their keys inline.
struct PaperScaleGolden {
  const char* family;
  double ccr;
  ProcId procs;
  double makespan;
  std::uint64_t digest;
};

TEST(PlatformGolden, PaperScaleBitIdentical) {
  static const PaperScaleGolden kTable[] = {
      {"LU", 0.2, 2, 0x1.0079d5b061a11p+10, 5613661680958476075ull},
      {"LU", 0.2, 4, 0x1.09487c49715f1p+9, 18291875488150045238ull},
      {"LU", 0.2, 8, 0x1.226edf7f0397cp+8, 3909562669689757267ull},
      {"LU", 0.2, 16, 0x1.6944e320007abp+7, 12935920915253967792ull},
      {"LU", 0.2, 32, 0x1.15ad417cc8702p+7, 1450076823230287348ull},
      {"LU", 5.0, 2, 0x1.081f995026e7ep+10, 17622877240686917094ull},
      {"LU", 5.0, 4, 0x1.31b93723b6141p+9, 12327718157597816134ull},
      {"LU", 5.0, 8, 0x1.c7b6d77791b45p+8, 14050385893462939574ull},
      {"LU", 5.0, 16, 0x1.ba8d9a7e41716p+8, 11874614950395862192ull},
      {"LU", 5.0, 32, 0x1.b6508b6cb9ff8p+8, 6401152131649795697ull},
      {"Laplace", 0.2, 2, 0x1.f1b1f6a91f6edp+9, 13222082807006827590ull},
      {"Laplace", 0.2, 4, 0x1.fa246af0cd784p+8, 7585485237011782509ull},
      {"Laplace", 0.2, 8, 0x1.067ce77a851dep+8, 5660036482886501831ull},
      {"Laplace", 0.2, 16, 0x1.1aae75d7f170ep+7, 1348482724396572685ull},
      {"Laplace", 0.2, 32, 0x1.44376f6f3b505p+6, 11395411020763281141ull},
      {"Laplace", 5.0, 2, 0x1.052d8d483335cp+10, 14546160274004283931ull},
      {"Laplace", 5.0, 4, 0x1.1ad8335ff3f54p+9, 4163971359350645341ull},
      {"Laplace", 5.0, 8, 0x1.4b4d6f16d40b1p+8, 11608811179225275115ull},
      {"Laplace", 5.0, 16, 0x1.b1702b3ec4648p+7, 13923266160872130489ull},
      {"Laplace", 5.0, 32, 0x1.7b8d8e61a9eaap+7, 11868312030641758119ull},
      {"Stencil", 0.2, 2, 0x1.f0d88c49ca485p+9, 9732843424306005122ull},
      {"Stencil", 0.2, 4, 0x1.f160befe2b0e7p+8, 9518343162115985729ull},
      {"Stencil", 0.2, 8, 0x1.f16d3c3cbbceep+7, 7463027454979502919ull},
      {"Stencil", 0.2, 16, 0x1.f576061f279a6p+6, 6946351245274191512ull},
      {"Stencil", 0.2, 32, 0x1.2b238ae9a326p+6, 6746569970928988142ull},
      {"Stencil", 5.0, 2, 0x1.f0e8bb187815bp+9, 6577371244449244566ull},
      {"Stencil", 5.0, 4, 0x1.f253b212b5fc6p+8, 6060201349908450839ull},
      {"Stencil", 5.0, 8, 0x1.2baeec8ca7e19p+8, 12560956938145817588ull},
      {"Stencil", 5.0, 16, 0x1.0fe7e5711ebb5p+8, 12426230409236699859ull},
      {"Stencil", 5.0, 32, 0x1.ff3c20b9d09c5p+7, 1478383758385072519ull},
  };
  for (const PaperScaleGolden& row : kTable) {
    WorkloadParams params;
    params.ccr = row.ccr;
    TaskGraph g = make_workload(row.family, 2000, params);
    FlbScheduler flb;
    Schedule s = flb.run(g, row.procs);
    EXPECT_EQ(s.makespan(), row.makespan)
        << row.family << " CCR=" << row.ccr << " P=" << row.procs;
    EXPECT_EQ(schedule_digest(s), row.digest)
        << row.family << " CCR=" << row.ccr << " P=" << row.procs;
  }
}

// The engine's own counters on the same graphs at P=8. These pin the path
// a schedule took, not only where it ended: a heap change that classified
// or demoted a task differently but happened to land on the same
// placement would still move them.
struct StatsGolden {
  const char* family;
  double ccr;
  std::size_t classified_ep;
  std::size_t ep_demotions;
  std::size_t ep_selections;
  std::size_t non_ep_selections;
  std::size_t max_ready;
};

TEST(PlatformGolden, PaperScaleFlbStats) {
  static const StatsGolden kTable[] = {
      {"LU", 0.2, 2013, 1920, 93, 1922, 62},
      {"LU", 5.0, 2014, 1074, 940, 1075, 62},
      {"Laplace", 0.2, 1774, 1755, 19, 1951, 196},
      {"Laplace", 5.0, 1774, 1751, 23, 1947, 196},
      {"Stencil", 0.2, 1932, 1932, 0, 1980, 45},
      {"Stencil", 5.0, 1933, 353, 1580, 400, 45},
  };
  for (const StatsGolden& row : kTable) {
    WorkloadParams params;
    params.ccr = row.ccr;
    TaskGraph g = make_workload(row.family, 2000, params);
    FlbScheduler flb;
    FlbStats stats;
    Schedule s = flb.run_instrumented(g, 8, nullptr, &stats);
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(stats.iterations, g.num_tasks());
    EXPECT_EQ(stats.tasks_classified_ep, row.classified_ep)
        << row.family << " CCR=" << row.ccr;
    EXPECT_EQ(stats.ep_demotions, row.ep_demotions)
        << row.family << " CCR=" << row.ccr;
    EXPECT_EQ(stats.ep_selections, row.ep_selections)
        << row.family << " CCR=" << row.ccr;
    EXPECT_EQ(stats.non_ep_selections, row.non_ep_selections)
        << row.family << " CCR=" << row.ccr;
    EXPECT_EQ(stats.max_ready, row.max_ready)
        << row.family << " CCR=" << row.ccr;
  }
}

// FLB on unit weights (comp = 1, comm = CCR exactly) at V~500, every
// workload family x CCR {0, 1, 5} x P {1, 3, 8, 32}. Equal arrivals are
// common here, so the EP and EMT tie branches of classification run on
// nearly every ready task. A wrong EMT after an EP switch leaves every
// CCR 0 and CCR 1 row unchanged but moves several CCR 5 rows, so the
// CCR 5 rows are the ones that pin the EMT arithmetic. Cholesky's
// edges do not all run from lower to higher ids, so it also pins the
// bottom levels of a graph whose ids are not a topological order. Each
// row pins the makespan bits, the placement digest and the engine's
// counters. Captured before classification moved to one predecessor scan.
struct FlbCounts {
  std::size_t classified_ep;
  std::size_t ep_demotions;
  std::size_t ep_selections;
  std::size_t non_ep_selections;
  std::size_t max_ready;
};

struct UnitWeightFlbGolden {
  const char* family;
  double ccr;
  ProcId procs;
  double makespan;
  std::uint64_t digest;
  FlbCounts stats;
};

TEST(PlatformGolden, UnitWeightFlbBitIdentical) {
  static const UnitWeightFlbGolden kTable[] = {
      {"LU", 0.0, 1, 0x1.efp+8, 12312857458376156685ull,
       {494, 464, 30, 465, 30}},
      {"LU", 0.0, 3, 0x1.62p+7, 7441972847679676319ull,
       {494, 461, 33, 462, 30}},
      {"LU", 0.0, 8, 0x1.48p+6, 6829335468326876318ull,
       {494, 451, 43, 452, 30}},
      {"LU", 0.0, 32, 0x1.ep+5, 8832609548652450230ull,
       {494, 435, 59, 436, 30}},
      {"LU", 1.0, 1, 0x1.efp+8, 12312857458376156685ull,
       {494, 434, 60, 435, 30}},
      {"LU", 1.0, 3, 0x1.8ap+7, 12671544204236554654ull,
       {494, 431, 63, 432, 30}},
      {"LU", 1.0, 8, 0x1.b4p+6, 13499184777522396390ull,
       {494, 421, 73, 422, 30}},
      {"LU", 1.0, 32, 0x1.64p+6, 15367169095397505141ull,
       {494, 406, 88, 407, 30}},
      {"LU", 5.0, 1, 0x1.efp+8, 12312857458376156685ull,
       {494, 324, 170, 325, 30}},
      {"LU", 5.0, 3, 0x1.09p+8, 262146965583239904ull,
       {494, 317, 177, 318, 30}},
      {"LU", 5.0, 8, 0x1.74p+7, 1641507650168597826ull,
       {494, 265, 229, 266, 30}},
      {"LU", 5.0, 32, 0x1.14p+7, 6980927537867552006ull,
       {494, 193, 301, 194, 30}},
      {"Laplace", 0.0, 1, 0x1.f4p+8, 11282725667298539028ull,
       {451, 432, 19, 481, 49}},
      {"Laplace", 0.0, 3, 0x1.68p+7, 10083656975882354073ull,
       {451, 432, 19, 481, 49}},
      {"Laplace", 0.0, 8, 0x1.4p+6, 14443202048719912995ull,
       {451, 432, 19, 481, 49}},
      {"Laplace", 0.0, 32, 0x1.ep+4, 17788563541735881638ull,
       {451, 432, 19, 481, 49}},
      {"Laplace", 1.0, 1, 0x1.f4p+8, 11282725667298539028ull,
       {451, 423, 28, 472, 49}},
      {"Laplace", 1.0, 3, 0x1.7ap+7, 7069904048196434516ull,
       {451, 423, 28, 472, 49}},
      {"Laplace", 1.0, 8, 0x1.64p+6, 11066981106820789661ull,
       {451, 423, 28, 472, 49}},
      {"Laplace", 1.0, 32, 0x1.88p+5, 18445036415252612721ull,
       {451, 423, 28, 472, 49}},
      {"Laplace", 5.0, 1, 0x1.f4p+8, 11282725667298539028ull,
       {451, 387, 64, 436, 49}},
      {"Laplace", 5.0, 3, 0x1p+8, 1536866762324670459ull,
       {451, 387, 64, 436, 49}},
      {"Laplace", 5.0, 8, 0x1.4ap+7, 17093012111656788162ull,
       {451, 387, 64, 436, 49}},
      {"Laplace", 5.0, 32, 0x1.f4p+6, 17303198257708024463ull,
       {451, 387, 64, 436, 49}},
      {"Stencil", 0.0, 1, 0x1.fap+8, 11328342769082332852ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 0.0, 3, 0x1.52p+7, 9327129125597526131ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 0.0, 8, 0x1p+6, 17738958599169588642ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 0.0, 32, 0x1.7p+4, 12802110043265665143ull,
       {484, 22, 462, 44, 22}},
      {"Stencil", 1.0, 1, 0x1.fap+8, 11328342769082332852ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 1.0, 3, 0x1.52p+7, 9327129125597526131ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 1.0, 8, 0x1p+6, 17738958599169588642ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 1.0, 32, 0x1.68p+5, 9795690572219932671ull,
       {484, 22, 462, 44, 22}},
      {"Stencil", 5.0, 1, 0x1.fap+8, 11328342769082332852ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 5.0, 3, 0x1.52p+7, 9327129125597526131ull,
       {484, 484, 0, 506, 22}},
      {"Stencil", 5.0, 8, 0x1.14p+7, 3780513474266688605ull,
       {484, 339, 145, 361, 22}},
      {"Stencil", 5.0, 32, 0x1.0ap+7, 12574410157290861135ull,
       {484, 22, 462, 44, 22}},
      {"FFT", 0.0, 1, 0x1.cp+8, 13465421519134943631ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 0.0, 3, 0x1.2cp+7, 3034190279197835166ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 0.0, 8, 0x1.cp+5, 17049768800457299171ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 0.0, 32, 0x1.cp+3, 17811009642019831555ull,
       {384, 383, 1, 447, 64}},
      {"FFT", 1.0, 1, 0x1.cp+8, 13465421519134943631ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 1.0, 3, 0x1.2cp+7, 3034190279197835166ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 1.0, 8, 0x1.cp+5, 17049768800457299171ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 1.0, 32, 0x1.cp+3, 12784793412954760963ull,
       {384, 0, 384, 64, 64}},
      {"FFT", 5.0, 1, 0x1.cp+8, 13465421519134943631ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 5.0, 3, 0x1.2cp+7, 3034190279197835166ull,
       {384, 384, 0, 448, 64}},
      {"FFT", 5.0, 8, 0x1.cp+5, 11093789509493596371ull,
       {384, 349, 35, 413, 64}},
      {"FFT", 5.0, 32, 0x1.1p+5, 3947229843180532483ull,
       {384, 0, 384, 64, 64}},
      {"Gauss", 0.0, 1, 0x1.efp+8, 12312857458376156685ull,
       {494, 435, 59, 436, 30}},
      {"Gauss", 0.0, 3, 0x1.86p+7, 11506799744817553563ull,
       {494, 435, 59, 436, 30}},
      {"Gauss", 0.0, 8, 0x1.98p+6, 11023563420681420562ull,
       {494, 435, 59, 436, 30}},
      {"Gauss", 0.0, 32, 0x1.ep+5, 8832609548652450230ull,
       {494, 435, 59, 436, 30}},
      {"Gauss", 1.0, 1, 0x1.efp+8, 12312857458376156685ull,
       {494, 406, 88, 407, 30}},
      {"Gauss", 1.0, 3, 0x1.d4p+7, 16175085181207558353ull,
       {494, 406, 88, 407, 30}},
      {"Gauss", 1.0, 8, 0x1.32p+7, 5108307327496604156ull,
       {494, 406, 88, 407, 30}},
      {"Gauss", 1.0, 32, 0x1.d4p+6, 2558439151103469256ull,
       {494, 406, 88, 407, 30}},
      {"Gauss", 5.0, 1, 0x1.efp+8, 12312857458376156685ull,
       {494, 300, 194, 301, 30}},
      {"Gauss", 5.0, 3, 0x1.8fp+8, 9156100592973583116ull,
       {494, 300, 194, 301, 30}},
      {"Gauss", 5.0, 8, 0x1.53p+8, 18039613612259219136ull,
       {494, 300, 194, 301, 30}},
      {"Gauss", 5.0, 32, 0x1.3bp+8, 9217088814938771154ull,
       {494, 300, 194, 301, 30}},
      {"Cholesky", 0.0, 1, 0x1.c7p+8, 2051651314039561471ull,
       {454, 440, 14, 441, 78}},
      {"Cholesky", 0.0, 3, 0x1.3cp+7, 14029078849622675421ull,
       {454, 441, 13, 442, 78}},
      {"Cholesky", 0.0, 8, 0x1.0cp+6, 3787029368632398789ull,
       {454, 424, 30, 425, 78}},
      {"Cholesky", 0.0, 32, 0x1.4p+5, 13044247041850275594ull,
       {454, 367, 87, 368, 78}},
      {"Cholesky", 1.0, 1, 0x1.c7p+8, 2051651314039561471ull,
       {454, 427, 27, 428, 78}},
      {"Cholesky", 1.0, 3, 0x1.46p+7, 2876570741012449036ull,
       {454, 423, 31, 424, 78}},
      {"Cholesky", 1.0, 8, 0x1.2p+6, 10010230679791162313ull,
       {454, 353, 101, 354, 78}},
      {"Cholesky", 1.0, 32, 0x1.ep+5, 13333521354817268902ull,
       {454, 297, 157, 298, 78}},
      {"Cholesky", 5.0, 1, 0x1.c7p+8, 2051651314039561471ull,
       {454, 373, 81, 374, 78}},
      {"Cholesky", 5.0, 3, 0x1.8p+7, 8149241949244623937ull,
       {454, 324, 130, 325, 78}},
      {"Cholesky", 5.0, 8, 0x1.18p+7, 4509501957480443159ull,
       {454, 226, 228, 227, 78}},
      {"Cholesky", 5.0, 32, 0x1.0cp+7, 4681200006627134775ull,
       {454, 196, 258, 197, 78}},
      {"Random", 0.0, 1, 0x1.fp+8, 15029701234033241972ull,
       {480, 480, 0, 496, 16}},
      {"Random", 0.0, 3, 0x1.4cp+7, 16143215719803529784ull,
       {480, 480, 0, 496, 16}},
      {"Random", 0.0, 8, 0x1.fp+5, 2568724167943855059ull,
       {480, 467, 13, 483, 16}},
      {"Random", 0.0, 32, 0x1.fp+4, 1551291617269564702ull,
       {480, 290, 190, 306, 16}},
      {"Random", 1.0, 1, 0x1.fp+8, 15029701234033241972ull,
       {480, 480, 0, 496, 16}},
      {"Random", 1.0, 3, 0x1.4cp+7, 5541767951117398475ull,
       {480, 470, 10, 486, 16}},
      {"Random", 1.0, 8, 0x1.4cp+6, 10928756669410385299ull,
       {480, 316, 164, 332, 16}},
      {"Random", 1.0, 32, 0x1.e8p+5, 11548228976044058535ull,
       {480, 287, 193, 303, 16}},
      {"Random", 5.0, 1, 0x1.fp+8, 15029701234033241972ull,
       {480, 462, 18, 478, 16}},
      {"Random", 5.0, 3, 0x1.dp+7, 17917061436793152757ull,
       {480, 251, 229, 267, 16}},
      {"Random", 5.0, 8, 0x1.92p+7, 677117789544928287ull,
       {480, 304, 176, 320, 16}},
      {"Random", 5.0, 32, 0x1.6ap+7, 14203342900481928045ull,
       {480, 287, 193, 303, 16}},
  };
  for (const UnitWeightFlbGolden& row : kTable) {
    WorkloadParams params;
    params.ccr = row.ccr;
    params.random_weights = false;
    TaskGraph g = make_workload(row.family, 500, params);
    FlbScheduler flb;
    FlbStats stats;
    Schedule s = flb.run_instrumented(g, row.procs, nullptr, &stats);
    const std::string where = std::string(row.family) +
                              " CCR=" + std::to_string(row.ccr) +
                              " P=" + std::to_string(row.procs);
    EXPECT_EQ(s.makespan(), row.makespan) << where;
    EXPECT_EQ(schedule_digest(s), row.digest) << where;
    EXPECT_EQ(stats.iterations, g.num_tasks()) << where;
    EXPECT_EQ(stats.tasks_classified_ep, row.stats.classified_ep) << where;
    EXPECT_EQ(stats.ep_demotions, row.stats.ep_demotions) << where;
    EXPECT_EQ(stats.ep_selections, row.stats.ep_selections) << where;
    EXPECT_EQ(stats.non_ep_selections, row.stats.non_ep_selections)
        << where;
    EXPECT_EQ(stats.max_ready, row.stats.max_ready) << where;
  }
}

// Baseline goldens: every comparison algorithm that keeps its ready list
// or its processors in a heap, on the same Fig. 2 graphs (V~2000, seed 1)
// x CCR {0.2, 5} x P {2, 8, 32}. Each baseline key ends with a task or
// processor id, so no heap shape may reorder a tie; these rows check it.
// HEFT and CPOP run on a uniform HeteroMachine, "HEFT-model" through a
// clique CostModel, and DUP is digested over every instance. Captured
// while the baselines still ran on binary heaps.
struct BaselineGolden {
  const char* variant;
  const char* family;
  double ccr;
  ProcId procs;
  double makespan;
  std::uint64_t digest;
};

// Every instance of a duplication schedule, task by task in placement
// order, through the same FNV-1a feed as schedule_digest.
std::uint64_t dup_digest(const DupSchedule& s) {
  Fnv1a h;
  for (TaskId t = 0; t < s.num_tasks(); ++t) {
    h.u64(s.instances(t).size());
    for (const Placement& pl : s.instances(t)) {
      h.u64(pl.proc);
      h.f64(pl.start);
      h.f64(pl.finish);
    }
  }
  return h.value();
}

struct BaselineRun {
  double makespan;
  std::uint64_t digest;
};

// One graph with both clusterings, built once and shared by every P.
struct BaselineInput {
  TaskGraph graph;
  Clustering dsc;
  Clustering sarkar;
};

BaselineRun run_baseline(const std::string& variant, const BaselineInput& in,
                         ProcId procs) {
  const TaskGraph& g = in.graph;
  auto of = [](const Schedule& s) {
    return BaselineRun{s.makespan(), schedule_digest(s)};
  };
  if (variant == "HEFT") return of(heft(g, HeteroMachine::uniform(procs)));
  if (variant == "CPOP") return of(cpop(g, HeteroMachine::uniform(procs)));
  if (variant == "HEFT-model") {
    CostModel model = CostModel::clique(procs);
    return of(heft(g, model));
  }
  if (variant == "DUP") {
    DupSchedule s = DupScheduler().run(g, procs);
    return {s.makespan(), dup_digest(s)};
  }
  if (variant == "DSC+work_map") return of(work_map(g, in.dsc, procs));
  if (variant == "Sarkar+wrap_map") return of(wrap_map(g, in.sarkar, procs));
  if (variant == "Sarkar+work_map") return of(work_map(g, in.sarkar, procs));
  return of(make_scheduler(variant)->run(g, procs));
}

// Runs each row on make_workload(family, tasks) at the row's CCR and
// compares makespan and digest with the row.
void expect_baseline_goldens(std::span<const BaselineGolden> table,
                             std::size_t tasks, bool random_weights) {
  std::map<std::pair<std::string, double>, BaselineInput> inputs;
  for (const BaselineGolden& row : table) {
    auto it = inputs.find({row.family, row.ccr});
    if (it == inputs.end()) {
      WorkloadParams params;
      params.ccr = row.ccr;
      params.random_weights = random_weights;
      TaskGraph g = make_workload(row.family, tasks, params);
      Clustering dsc = dsc_cluster(g);
      Clustering sarkar = sarkar_cluster(g);
      it = inputs
               .emplace(std::pair(std::string(row.family), row.ccr),
                        BaselineInput{std::move(g), std::move(dsc),
                                      std::move(sarkar)})
               .first;
    }
    const BaselineRun run = run_baseline(row.variant, it->second, row.procs);
    EXPECT_EQ(run.makespan, row.makespan)
        << row.variant << " " << row.family << " CCR=" << row.ccr
        << " P=" << row.procs;
    EXPECT_EQ(run.digest, row.digest)
        << row.variant << " " << row.family << " CCR=" << row.ccr
        << " P=" << row.procs;
  }
}

TEST(PlatformGolden, PaperScaleBaselinesBitIdentical) {
  static const BaselineGolden kTable[] = {
      {"MCP", "LU", 0.2, 2, 0x1.fc3ee3c8cf067p+9, 11932830428693536856ull},
      {"MCP", "LU", 0.2, 8, 0x1.0c2603ea1cc69p+8, 17799364798666712731ull},
      {"MCP", "LU", 0.2, 32, 0x1.08601ec537194p+7, 12105795517573925261ull},
      {"MCP", "LU", 5.0, 2, 0x1.07cf7d75901b6p+10, 17752349835064544279ull},
      {"MCP", "LU", 5.0, 8, 0x1.94a3416d664b3p+8, 5145407347428486913ull},
      {"MCP", "LU", 5.0, 32, 0x1.3682d37df5dcfp+8, 17989124865233501802ull},
      {"MCP", "Laplace", 0.2, 2, 0x1.f0b55a08b8d48p+9, 2895877791668346848ull},
      {"MCP", "Laplace", 0.2, 8, 0x1.011d8625acb7ep+8, 3734456023726236731ull},
      {"MCP", "Laplace", 0.2, 32, 0x1.27b03cb50bedep+6, 4258658502054462331ull},
      {"MCP", "Laplace", 5.0, 2, 0x1.f76ec22dc9f1dp+9, 9924408302526500789ull},
      {"MCP", "Laplace", 5.0, 8, 0x1.2ad690130f8cbp+8, 3124727375637886453ull},
      {"MCP", "Laplace", 5.0, 32, 0x1.7af466a39e0abp+7,
       16820046525289756110ull},
      {"MCP", "Stencil", 0.2, 2, 0x1.f0bfb2e3b9ddp+9, 16826070726949244989ull},
      {"MCP", "Stencil", 0.2, 8, 0x1.f1237cc512561p+7, 9936444931564715104ull},
      {"MCP", "Stencil", 0.2, 32, 0x1.281ada5db04b9p+6, 6335487665182086274ull},
      {"MCP", "Stencil", 5.0, 2, 0x1.f0ca799296d1bp+9, 14742319311945553775ull},
      {"MCP", "Stencil", 5.0, 8, 0x1.6f42da0832a07p+8, 7221202123111236872ull},
      {"MCP", "Stencil", 5.0, 32, 0x1.4dc93c066dd58p+8,
       13802262127640891037ull},
      {"MCP-I", "LU", 0.2, 2, 0x1.fbfca14ba0a0fp+9, 17450402949776777766ull},
      {"MCP-I", "LU", 0.2, 8, 0x1.07984a456977bp+8, 9658940852470328373ull},
      {"MCP-I", "LU", 0.2, 32, 0x1.08601ec537194p+7, 17636903339597666059ull},
      {"MCP-I", "LU", 5.0, 2, 0x1.0242247d687p+10, 12206148891222907144ull},
      {"MCP-I", "LU", 5.0, 8, 0x1.425e65c64a653p+8, 14837646024851528977ull},
      {"MCP-I", "LU", 5.0, 32, 0x1.28273d9679676p+8, 809727267027784762ull},
      {"MCP-I", "Laplace", 0.2, 2, 0x1.f05282f35b55bp+9,
       1417951773524179568ull},
      {"MCP-I", "Laplace", 0.2, 8, 0x1.007838bb26c03p+8,
       17109929328720731350ull},
      {"MCP-I", "Laplace", 0.2, 32, 0x1.2638a935e42c2p+6,
       13977134575034061761ull},
      {"MCP-I", "Laplace", 5.0, 2, 0x1.f20cae9da1f93p+9,
       11557086574677444397ull},
      {"MCP-I", "Laplace", 5.0, 8, 0x1.0c58637028adp+8,
       13092559783443727352ull},
      {"MCP-I", "Laplace", 5.0, 32, 0x1.7af466a39e0abp+7,
       7621209093040175979ull},
      {"MCP-I", "Stencil", 0.2, 2, 0x1.f0bf9ffc8f324p+9,
       8426613903236835182ull},
      {"MCP-I", "Stencil", 0.2, 8, 0x1.f1155da3010ddp+7,
       12544240535781065937ull},
      {"MCP-I", "Stencil", 0.2, 32, 0x1.281ada5db04b9p+6,
       15138418555292579904ull},
      {"MCP-I", "Stencil", 5.0, 2, 0x1.f0c5e98d70229p+9,
       13292428732395035042ull},
      {"MCP-I", "Stencil", 5.0, 8, 0x1.3f3f6856d7d7dp+8,
       4884427149155947662ull},
      {"MCP-I", "Stencil", 5.0, 32, 0x1.3d666eda5a339p+8,
       9624862932057762836ull},
      {"FCP", "LU", 0.2, 2, 0x1.fc3ee3c8cf067p+9, 11932830428693536856ull},
      {"FCP", "LU", 0.2, 8, 0x1.0cdec623ac21ap+8, 6070232949624746639ull},
      {"FCP", "LU", 0.2, 32, 0x1.08601ec537194p+7, 13347196827313523767ull},
      {"FCP", "LU", 5.0, 2, 0x1.07cf7d75901b6p+10, 17752349835064544279ull},
      {"FCP", "LU", 5.0, 8, 0x1.a4c169a99f3afp+8, 5510777448666240162ull},
      {"FCP", "LU", 5.0, 32, 0x1.39cc1bba059d4p+8, 1858990417058002019ull},
      {"FCP", "Laplace", 0.2, 2, 0x1.f0b55a08b8d48p+9, 2895877791668346848ull},
      {"FCP", "Laplace", 0.2, 8, 0x1.011d8625acb7ep+8, 15350910568423819301ull},
      {"FCP", "Laplace", 0.2, 32, 0x1.27b03cb50bedep+6,
       11351443092575932906ull},
      {"FCP", "Laplace", 5.0, 2, 0x1.f76ec22dc9f1dp+9, 9924408302526500789ull},
      {"FCP", "Laplace", 5.0, 8, 0x1.301d0c3f88bd6p+8, 9054147982038566728ull},
      {"FCP", "Laplace", 5.0, 32, 0x1.7e0c9ea1650dap+7, 215962625211467779ull},
      {"FCP", "Stencil", 0.2, 2, 0x1.f0bfb2e3b9ddp+9, 16826070726949244989ull},
      {"FCP", "Stencil", 0.2, 8, 0x1.f121609430859p+7, 9628528602561555852ull},
      {"FCP", "Stencil", 0.2, 32, 0x1.2796f1345796dp+6,
       14798173058044593700ull},
      {"FCP", "Stencil", 5.0, 2, 0x1.f0ca799296d1bp+9, 14742319311945553775ull},
      {"FCP", "Stencil", 5.0, 8, 0x1.76256964a071p+8, 1837227815165516244ull},
      {"FCP", "Stencil", 5.0, 32, 0x1.24844fa0335cep+8,
       16271763233026382728ull},
      {"DSC-LLB", "LU", 0.2, 2, 0x1.fd51ac7578c3bp+9, 11229585637044633442ull},
      {"DSC-LLB", "LU", 0.2, 8, 0x1.0dc291ba21533p+8, 15492375358060501900ull},
      {"DSC-LLB", "LU", 0.2, 32, 0x1.0f000d55089dep+7, 15095700632782946918ull},
      {"DSC-LLB", "LU", 5.0, 2, 0x1.0223ce39b8c93p+10, 4371396501237704457ull},
      {"DSC-LLB", "LU", 5.0, 8, 0x1.6c11e58e4ac1fp+8, 18446004329704738833ull},
      {"DSC-LLB", "LU", 5.0, 32, 0x1.43c8c4cdd4179p+8, 7731489399562981371ull},
      {"DSC-LLB", "Laplace", 0.2, 2, 0x1.f09b5da4d61dcp+9,
       8044153720590366334ull},
      {"DSC-LLB", "Laplace", 0.2, 8, 0x1.00ec0e2bdaab7p+8,
       4396106912719466990ull},
      {"DSC-LLB", "Laplace", 0.2, 32, 0x1.27bb728026cb7p+6,
       4439035467769079449ull},
      {"DSC-LLB", "Laplace", 5.0, 2, 0x1.f789833d81ef9p+9,
       2720057644213682887ull},
      {"DSC-LLB", "Laplace", 5.0, 8, 0x1.2a280949e3c5ep+8,
       4308184845960669263ull},
      {"DSC-LLB", "Laplace", 5.0, 32, 0x1.6bb6ceb07840ep+7,
       16497331782106327156ull},
      {"DSC-LLB", "Stencil", 0.2, 2, 0x1.f0c612c7a306fp+9,
       3609397102322137069ull},
      {"DSC-LLB", "Stencil", 0.2, 8, 0x1.f7a80a4859fcap+7,
       566328283930099630ull},
      {"DSC-LLB", "Stencil", 0.2, 32, 0x1.ac3a190b7aa89p+6,
       4053588485133961870ull},
      {"DSC-LLB", "Stencil", 5.0, 2, 0x1.f56c73c0bee47p+9,
       15907864743707007715ull},
      {"DSC-LLB", "Stencil", 5.0, 8, 0x1.81085130e3c35p+8,
       3446884164700023997ull},
      {"DSC-LLB", "Stencil", 5.0, 32, 0x1.4c3ca5ee1badfp+8,
       18772389246345565ull},
      {"HLFET", "LU", 0.2, 2, 0x1.fcca3dd8b5447p+9, 10093563509347177320ull},
      {"HLFET", "LU", 0.2, 8, 0x1.0cbb2e2c98b9cp+8, 10811743480412575891ull},
      {"HLFET", "LU", 0.2, 32, 0x1.07d1931d32fd2p+7, 5290738209340581842ull},
      {"HLFET", "LU", 5.0, 2, 0x1.09d4363f37239p+10, 4582209781672735419ull},
      {"HLFET", "LU", 5.0, 8, 0x1.6a8972e417ff8p+8, 3848659074622922862ull},
      {"HLFET", "LU", 5.0, 32, 0x1.3543dbcb76f8ap+8, 17168976270473725624ull},
      {"HLFET", "Laplace", 0.2, 2, 0x1.f1bb8aae77bd3p+9,
       5013336043879693160ull},
      {"HLFET", "Laplace", 0.2, 8, 0x1.03932fe2a034bp+8,
       5306990930486035298ull},
      {"HLFET", "Laplace", 0.2, 32, 0x1.30da0274b960bp+6,
       15151267875192774454ull},
      {"HLFET", "Laplace", 5.0, 2, 0x1.10a61b919b45ap+10,
       6350303404980745711ull},
      {"HLFET", "Laplace", 5.0, 8, 0x1.7b186f49c6be6p+8,
       4523856502327952193ull},
      {"HLFET", "Laplace", 5.0, 32, 0x1.99981bcc0ec5cp+7,
       10572252490128583003ull},
      {"HLFET", "Stencil", 0.2, 2, 0x1.f0d6e6b8a15aap+9,
       12574881003023310626ull},
      {"HLFET", "Stencil", 0.2, 8, 0x1.f2c117fa8833dp+7,
       4251490878925220532ull},
      {"HLFET", "Stencil", 0.2, 32, 0x1.28ca6ed6703ccp+6,
       5225738742482071907ull},
      {"HLFET", "Stencil", 5.0, 2, 0x1.00b585c181762p+10,
       16167498612079590843ull},
      {"HLFET", "Stencil", 5.0, 8, 0x1.99343eba335edp+8,
       9747982098413468195ull},
      {"HLFET", "Stencil", 5.0, 32, 0x1.42c2f0ff95f38p+8,
       7499007429398234518ull},
      {"ISH", "LU", 0.2, 2, 0x1.fc67fba590e85p+9, 14118416643014340112ull},
      {"ISH", "LU", 0.2, 8, 0x1.07a8b85d61215p+8, 7870119757647769145ull},
      {"ISH", "LU", 0.2, 32, 0x1.07d1931d32fd2p+7, 14382901722915874979ull},
      {"ISH", "LU", 5.0, 2, 0x1.021fa621fc3a5p+10, 45672745068242513ull},
      {"ISH", "LU", 5.0, 8, 0x1.3ba0465e58a03p+8, 15863980233995950054ull},
      {"ISH", "LU", 5.0, 32, 0x1.2ba80c868a181p+8, 13766505368087934937ull},
      {"ISH", "Laplace", 0.2, 2, 0x1.f129da54ea3b7p+9, 16528514991629725368ull},
      {"ISH", "Laplace", 0.2, 8, 0x1.027b0c0833b85p+8, 13891820563745020639ull},
      {"ISH", "Laplace", 0.2, 32, 0x1.2fd8957b34ff1p+6,
       10357125996816461639ull},
      {"ISH", "Laplace", 5.0, 2, 0x1.0dfd813112c8ap+10, 1250108309826479534ull},
      {"ISH", "Laplace", 5.0, 8, 0x1.5e0276b6deccfp+8, 7284369675799711892ull},
      {"ISH", "Laplace", 5.0, 32, 0x1.9207deab20518p+7,
       10594121414194186232ull},
      {"ISH", "Stencil", 0.2, 2, 0x1.f0d0b201f44bbp+9, 2876902452904583727ull},
      {"ISH", "Stencil", 0.2, 8, 0x1.f18722c427685p+7, 5872966585519217247ull},
      {"ISH", "Stencil", 0.2, 32, 0x1.28ca6ed6703ccp+6,
       17434056445312544677ull},
      {"ISH", "Stencil", 5.0, 2, 0x1.f165632c8d198p+9, 13699498856097964793ull},
      {"ISH", "Stencil", 5.0, 8, 0x1.356b9d25101ebp+8, 8510675098578348894ull},
      {"ISH", "Stencil", 5.0, 32, 0x1.2c9e127c8331p+8, 16859947523070334708ull},
      {"HEFT", "LU", 0.2, 2, 0x1.fbfca14ba0a0fp+9, 17450402949776777766ull},
      {"HEFT", "LU", 0.2, 8, 0x1.07984a456977bp+8, 9658940852470328373ull},
      {"HEFT", "LU", 0.2, 32, 0x1.08601ec537194p+7, 17636903339597666059ull},
      {"HEFT", "LU", 5.0, 2, 0x1.0242247d687p+10, 12206148891222907144ull},
      {"HEFT", "LU", 5.0, 8, 0x1.425e65c64a653p+8, 14837646024851528977ull},
      {"HEFT", "LU", 5.0, 32, 0x1.28273d9679676p+8, 809727267027784762ull},
      {"HEFT", "Laplace", 0.2, 2, 0x1.f05282f35b55bp+9, 1417951773524179568ull},
      {"HEFT", "Laplace", 0.2, 8, 0x1.007838bb26c03p+8,
       17109929328720731350ull},
      {"HEFT", "Laplace", 0.2, 32, 0x1.2638a935e42c2p+6,
       13977134575034061761ull},
      {"HEFT", "Laplace", 5.0, 2, 0x1.f20cae9da1f93p+9,
       11557086574677444397ull},
      {"HEFT", "Laplace", 5.0, 8, 0x1.0c58637028adp+8, 13092559783443727352ull},
      {"HEFT", "Laplace", 5.0, 32, 0x1.7af466a39e0abp+7,
       7621209093040175979ull},
      {"HEFT", "Stencil", 0.2, 2, 0x1.f0bf9ffc8f324p+9, 8426613903236835182ull},
      {"HEFT", "Stencil", 0.2, 8, 0x1.f1155da3010ddp+7,
       12544240535781065937ull},
      {"HEFT", "Stencil", 0.2, 32, 0x1.281ada5db04b9p+6,
       15138418555292579904ull},
      {"HEFT", "Stencil", 5.0, 2, 0x1.f0c5e98d70229p+9,
       13292428732395035042ull},
      {"HEFT", "Stencil", 5.0, 8, 0x1.3f3f6856d7d7dp+8, 4884427149155947662ull},
      {"HEFT", "Stencil", 5.0, 32, 0x1.3d666eda5a339p+8,
       9624862932057762836ull},
      {"CPOP", "LU", 0.2, 2, 0x1.04de51facdd09p+10, 16045421159802250871ull},
      {"CPOP", "LU", 0.2, 8, 0x1.231094197d9b3p+8, 10604135229026967419ull},
      {"CPOP", "LU", 0.2, 32, 0x1.2fbb8773c53c3p+7, 4566269492096132310ull},
      {"CPOP", "LU", 5.0, 2, 0x1.029ec925505ecp+10, 14406355544733612502ull},
      {"CPOP", "LU", 5.0, 8, 0x1.367dac3084fc6p+8, 7634309611744580956ull},
      {"CPOP", "LU", 5.0, 32, 0x1.34a33d021cb15p+8, 2631820213436571952ull},
      {"CPOP", "Laplace", 0.2, 2, 0x1.f090aa0a15e0fp+9, 9926889088241369430ull},
      {"CPOP", "Laplace", 0.2, 8, 0x1.018424a170d2fp+8, 2946739797430890936ull},
      {"CPOP", "Laplace", 0.2, 32, 0x1.2bc5b6c89dd7bp+6,
       11239391832632668889ull},
      {"CPOP", "Laplace", 5.0, 2, 0x1.f5787ae21ded1p+9,
       15477500673874599019ull},
      {"CPOP", "Laplace", 5.0, 8, 0x1.2146446fe3ed5p+8, 15933068293526488ull},
      {"CPOP", "Laplace", 5.0, 32, 0x1.6db2df3cc0ae9p+7,
       16554722796820135948ull},
      {"CPOP", "Stencil", 0.2, 2, 0x1.f99cefd191cc6p+9,
       18298793353787044350ull},
      {"CPOP", "Stencil", 0.2, 8, 0x1.1e1d5dcf752b5p+8, 3131341416580204060ull},
      {"CPOP", "Stencil", 0.2, 32, 0x1.700e1b40b237dp+7,
       6285548691529912849ull},
      {"CPOP", "Stencil", 5.0, 2, 0x1.09b306036c282p+10,
       9878364337636020339ull},
      {"CPOP", "Stencil", 5.0, 8, 0x1.4658f14de7638p+8, 5576126410288962217ull},
      {"CPOP", "Stencil", 5.0, 32, 0x1.33f8674cbe7ecp+8, 975765027600163604ull},
      {"HEFT-model", "LU", 0.2, 2, 0x1.fbfca14ba0a0fp+9,
       17450402949776777766ull},
      {"HEFT-model", "LU", 0.2, 8, 0x1.07984a456977bp+8,
       9658940852470328373ull},
      {"HEFT-model", "LU", 0.2, 32, 0x1.08601ec537194p+7,
       17636903339597666059ull},
      {"HEFT-model", "LU", 5.0, 2, 0x1.0242247d687p+10,
       12206148891222907144ull},
      {"HEFT-model", "LU", 5.0, 8, 0x1.425e65c64a653p+8,
       14837646024851528977ull},
      {"HEFT-model", "LU", 5.0, 32, 0x1.28273d9679676p+8,
       809727267027784762ull},
      {"HEFT-model", "Laplace", 0.2, 2, 0x1.f05282f35b55bp+9,
       1417951773524179568ull},
      {"HEFT-model", "Laplace", 0.2, 8, 0x1.007838bb26c03p+8,
       17109929328720731350ull},
      {"HEFT-model", "Laplace", 0.2, 32, 0x1.2638a935e42c2p+6,
       13977134575034061761ull},
      {"HEFT-model", "Laplace", 5.0, 2, 0x1.f20cae9da1f93p+9,
       11557086574677444397ull},
      {"HEFT-model", "Laplace", 5.0, 8, 0x1.0c58637028adp+8,
       13092559783443727352ull},
      {"HEFT-model", "Laplace", 5.0, 32, 0x1.7af466a39e0abp+7,
       7621209093040175979ull},
      {"HEFT-model", "Stencil", 0.2, 2, 0x1.f0bf9ffc8f324p+9,
       8426613903236835182ull},
      {"HEFT-model", "Stencil", 0.2, 8, 0x1.f1155da3010ddp+7,
       12544240535781065937ull},
      {"HEFT-model", "Stencil", 0.2, 32, 0x1.281ada5db04b9p+6,
       15138418555292579904ull},
      {"HEFT-model", "Stencil", 5.0, 2, 0x1.f0c5e98d70229p+9,
       13292428732395035042ull},
      {"HEFT-model", "Stencil", 5.0, 8, 0x1.3f3f6856d7d7dp+8,
       4884427149155947662ull},
      {"HEFT-model", "Stencil", 5.0, 32, 0x1.3d666eda5a339p+8,
       9624862932057762836ull},
      {"DUP", "LU", 0.2, 2, 0x1.fbfca14ba0a0fp+9, 399223779702170814ull},
      {"DUP", "LU", 0.2, 8, 0x1.09521f9e89df6p+8, 7268896766807052416ull},
      {"DUP", "LU", 0.2, 32, 0x1.075fed514c69ap+7, 13365280189702665457ull},
      {"DUP", "LU", 5.0, 2, 0x1.03e270369a64cp+10, 16763561911268062698ull},
      {"DUP", "LU", 5.0, 8, 0x1.597c943c9d9c6p+8, 9054979459745810996ull},
      {"DUP", "LU", 5.0, 32, 0x1.f03c1f9908a5ep+7, 5537538885892349854ull},
      {"DUP", "Laplace", 0.2, 2, 0x1.f047e81a755f3p+9, 14897954503185272634ull},
      {"DUP", "Laplace", 0.2, 8, 0x1.ffb2555dae531p+7, 2872074820503125651ull},
      {"DUP", "Laplace", 0.2, 32, 0x1.20e7dea4c1c9bp+6,
       14308057223716650863ull},
      {"DUP", "Laplace", 5.0, 2, 0x1.f129deb2e55b5p+9, 17337328119961654844ull},
      {"DUP", "Laplace", 5.0, 8, 0x1.0727df1068f01p+8, 5563807301625120200ull},
      {"DUP", "Laplace", 5.0, 32, 0x1.e9979db1ef109p+6, 6401461269078876401ull},
      {"DUP", "Stencil", 0.2, 2, 0x1.f0be4afcb99bcp+9, 12003098765482944803ull},
      {"DUP", "Stencil", 0.2, 8, 0x1.f1155da3010ddp+7, 11504871782721545341ull},
      {"DUP", "Stencil", 0.2, 32, 0x1.2485cd678558ep+6,
       17871406178530378036ull},
      {"DUP", "Stencil", 5.0, 2, 0x1.f0c5e98d70229p+9, 1752058574735691970ull},
      {"DUP", "Stencil", 5.0, 8, 0x1.5402684160142p+8, 17201877228007146259ull},
      {"DUP", "Stencil", 5.0, 32, 0x1.873152fd33618p+7,
       14731362743196062295ull},
      {"DSC+work_map", "LU", 0.2, 2, 0x1.1e091f4ccff5ep+10,
       1965047712045577299ull},
      {"DSC+work_map", "LU", 0.2, 8, 0x1.b9d8fb48cc234p+8,
       18170721223933807256ull},
      {"DSC+work_map", "LU", 0.2, 32, 0x1.d10e8ca1e76ebp+7,
       16308399363764432720ull},
      {"DSC+work_map", "LU", 5.0, 2, 0x1.31103a4c2a915p+10,
       6152602991252753186ull},
      {"DSC+work_map", "LU", 5.0, 8, 0x1.40b6dd9eedf61p+9,
       3791542492189740643ull},
      {"DSC+work_map", "LU", 5.0, 32, 0x1.bcf894bb32bb6p+8,
       18029792613664745441ull},
      {"DSC+work_map", "Laplace", 0.2, 2, 0x1.09b3aaf3e3518p+10,
       8096754322245129073ull},
      {"DSC+work_map", "Laplace", 0.2, 8, 0x1.527098201c03p+8,
       11467610050633233552ull},
      {"DSC+work_map", "Laplace", 0.2, 32, 0x1.03c6749bec9bdp+7,
       1749751094321290237ull},
      {"DSC+work_map", "Laplace", 5.0, 2, 0x1.0d70839e6663bp+10,
       17921169242707784560ull},
      {"DSC+work_map", "Laplace", 5.0, 8, 0x1.98e71f1aefc3cp+8,
       14153058457761673618ull},
      {"DSC+work_map", "Laplace", 5.0, 32, 0x1.a94a034b49d72p+7,
       12782592941391910993ull},
      {"DSC+work_map", "Stencil", 0.2, 2, 0x1.130099d739fa6p+10,
       4361905616790557084ull},
      {"DSC+work_map", "Stencil", 0.2, 8, 0x1.913c43afcc8efp+8,
       12825010594993893650ull},
      {"DSC+work_map", "Stencil", 0.2, 32, 0x1.7d1a636df807ap+7,
       8532357403628261845ull},
      {"DSC+work_map", "Stencil", 5.0, 2, 0x1.1a2574d6901f7p+10,
       14551065306285332170ull},
      {"DSC+work_map", "Stencil", 5.0, 8, 0x1.ea00bcbd7edfp+8,
       7672354321036554510ull},
      {"DSC+work_map", "Stencil", 5.0, 32, 0x1.79a782852256bp+8,
       11941288093920808769ull},
      {"Sarkar+wrap_map", "LU", 0.2, 2, 0x1.161ce98d9418p+10,
       6871597662007880288ull},
      {"Sarkar+wrap_map", "LU", 0.2, 8, 0x1.b9a9b1d4b1e31p+8,
       14886404355889184346ull},
      {"Sarkar+wrap_map", "LU", 0.2, 32, 0x1.db0a60b241327p+7,
       3207588917614914407ull},
      {"Sarkar+wrap_map", "LU", 5.0, 2, 0x1.3388de9df0a2fp+10,
       5057807917413154719ull},
      {"Sarkar+wrap_map", "LU", 5.0, 8, 0x1.73be9e5c32be5p+9,
       5956754836999588981ull},
      {"Sarkar+wrap_map", "LU", 5.0, 32, 0x1.ff51d8e147a2ep+8,
       6369545929625628657ull},
      {"Sarkar+wrap_map", "Laplace", 0.2, 2, 0x1.027328df0924ep+10,
       4007232098582765107ull},
      {"Sarkar+wrap_map", "Laplace", 0.2, 8, 0x1.3224c95732045p+8,
       12613646670181417989ull},
      {"Sarkar+wrap_map", "Laplace", 0.2, 32, 0x1.c7fe28834e7adp+6,
       1230730290764039086ull},
      {"Sarkar+wrap_map", "Laplace", 5.0, 2, 0x1.09c966ab0156dp+10,
       14737299718847812597ull},
      {"Sarkar+wrap_map", "Laplace", 5.0, 8, 0x1.e06ccd7d427b9p+8,
       3917150150078122336ull},
      {"Sarkar+wrap_map", "Laplace", 5.0, 32, 0x1.0d9072325f643p+8,
       3105957614995134280ull},
      {"Sarkar+wrap_map", "Stencil", 0.2, 2, 0x1.11a5b29ae8ebfp+10,
       1829474776987016365ull},
      {"Sarkar+wrap_map", "Stencil", 0.2, 8, 0x1.71def3f2194cdp+8,
       12959453384340033665ull},
      {"Sarkar+wrap_map", "Stencil", 0.2, 32, 0x1.1a5e4a6cd72e4p+7,
       17074311341303305266ull},
      {"Sarkar+wrap_map", "Stencil", 5.0, 2, 0x1.2aa4bf0d07dfdp+10,
       17046944619642649228ull},
      {"Sarkar+wrap_map", "Stencil", 5.0, 8, 0x1.ebb8c71d2c94ap+8,
       753482301822059292ull},
      {"Sarkar+wrap_map", "Stencil", 5.0, 32, 0x1.50f9201ceb9d5p+8,
       697337700583078981ull},
      {"Sarkar+work_map", "LU", 0.2, 2, 0x1.1607a6d22be6ep+10,
       16774104097218470750ull},
      {"Sarkar+work_map", "LU", 0.2, 8, 0x1.9d82f610d8509p+8,
       13520059454610303846ull},
      {"Sarkar+work_map", "LU", 0.2, 32, 0x1.d66b33e67c03bp+7,
       13920232413121931288ull},
      {"Sarkar+work_map", "LU", 5.0, 2, 0x1.2ec16f3a15896p+10,
       4155039762339269851ull},
      {"Sarkar+work_map", "LU", 5.0, 8, 0x1.4764f436c1a67p+9,
       13517723914783584825ull},
      {"Sarkar+work_map", "LU", 5.0, 32, 0x1.cf4746ee29d1cp+8,
       1905379981673915021ull},
      {"Sarkar+work_map", "Laplace", 0.2, 2, 0x1.06734c852169dp+10,
       14735931954840163043ull},
      {"Sarkar+work_map", "Laplace", 0.2, 8, 0x1.3415c2d3b59efp+8,
       15982582733832655075ull},
      {"Sarkar+work_map", "Laplace", 0.2, 32, 0x1.c649e4015aaedp+6,
       6557036024314459339ull},
      {"Sarkar+work_map", "Laplace", 5.0, 2, 0x1.09c293fc054e7p+10,
       9138998497588316220ull},
      {"Sarkar+work_map", "Laplace", 5.0, 8, 0x1.89916e29a152ap+8,
       841546136705522348ull},
      {"Sarkar+work_map", "Laplace", 5.0, 32, 0x1.8b7eb80bfdcafp+7,
       6800920250198957191ull},
      {"Sarkar+work_map", "Stencil", 0.2, 2, 0x1.148dc159a070cp+10,
       1303242555517333138ull},
      {"Sarkar+work_map", "Stencil", 0.2, 8, 0x1.82412d0b368dep+8,
       13175439704156478485ull},
      {"Sarkar+work_map", "Stencil", 0.2, 32, 0x1.5b44f5192dc48p+7,
       12287523669031311294ull},
      {"Sarkar+work_map", "Stencil", 5.0, 2, 0x1.0f45989596f8dp+10,
       10946937505894988646ull},
      {"Sarkar+work_map", "Stencil", 5.0, 8, 0x1.d746ecd3e67d1p+8,
       12342470212740205680ull},
      {"Sarkar+work_map", "Stencil", 5.0, 32, 0x1.3c12a952f5009p+8,
       12361580698375537774ull},
  };
  expect_baseline_goldens(kTable, 2000, /*random_weights=*/true);
}

// The same baselines on unit weights (comp = 1, comm = CCR exactly) at
// V~500. Most ready tasks then tie on their priority, so the id at the end
// of each task key decides the order. Random weights make such ties rare:
// reversing FCP's task tie-break changes no row above but many rows here.
TEST(PlatformGolden, UnitWeightBaselinesBitIdentical) {
  static const BaselineGolden kTable[] = {
      {"MCP", "LU", 1.0, 2, 0x1.f6p+7, 9460668172141108691ull},
      {"MCP", "LU", 1.0, 8, 0x1.64p+6, 671444568457667620ull},
      {"MCP", "LU", 1.0, 32, 0x1.3cp+6, 4025367953242854436ull},
      {"MCP", "Laplace", 1.0, 2, 0x1.0dp+8, 6964531008590676910ull},
      {"MCP", "Laplace", 1.0, 8, 0x1.64p+6, 9167325382381347305ull},
      {"MCP", "Laplace", 1.0, 32, 0x1.88p+5, 1800675815614938721ull},
      {"MCP", "Stencil", 1.0, 2, 0x1.fap+7, 13587691764837424046ull},
      {"MCP", "Stencil", 1.0, 8, 0x1.1p+6, 15277885025565109707ull},
      {"MCP", "Stencil", 1.0, 32, 0x1.68p+5, 8794040020615687726ull},
      {"MCP-I", "LU", 1.0, 2, 0x1.f4p+7, 9624607425848373171ull},
      {"MCP-I", "LU", 1.0, 8, 0x1.3cp+6, 17777067561914881462ull},
      {"MCP-I", "LU", 1.0, 32, 0x1.3cp+6, 4025367953242854436ull},
      {"MCP-I", "Laplace", 1.0, 2, 0x1.0dp+8, 6964531008590676910ull},
      {"MCP-I", "Laplace", 1.0, 8, 0x1.64p+6, 9167325382381347305ull},
      {"MCP-I", "Laplace", 1.0, 32, 0x1.88p+5, 1800675815614938721ull},
      {"MCP-I", "Stencil", 1.0, 2, 0x1.fap+7, 13587691764837424046ull},
      {"MCP-I", "Stencil", 1.0, 8, 0x1p+6, 2800499769730404197ull},
      {"MCP-I", "Stencil", 1.0, 32, 0x1.68p+5, 8794040020615687726ull},
      {"FCP", "LU", 1.0, 2, 0x1.f6p+7, 11574135976839542594ull},
      {"FCP", "LU", 1.0, 8, 0x1.6p+6, 2924257478970843289ull},
      {"FCP", "LU", 1.0, 32, 0x1.2cp+6, 10623350048653171256ull},
      {"FCP", "Laplace", 1.0, 2, 0x1.0dp+8, 15956129138842036702ull},
      {"FCP", "Laplace", 1.0, 8, 0x1.64p+6, 13440364753617440797ull},
      {"FCP", "Laplace", 1.0, 32, 0x1.88p+5, 2548923714787990609ull},
      {"FCP", "Stencil", 1.0, 2, 0x1.fap+7, 13262451890030830178ull},
      {"FCP", "Stencil", 1.0, 8, 0x1p+6, 17738958599169588642ull},
      {"FCP", "Stencil", 1.0, 32, 0x1.68p+5, 18371768990963042854ull},
      {"DSC-LLB", "LU", 1.0, 2, 0x1.f6p+7, 15175292731332716075ull},
      {"DSC-LLB", "LU", 1.0, 8, 0x1.48p+6, 3347968534563445926ull},
      {"DSC-LLB", "LU", 1.0, 32, 0x1.2cp+6, 14685931917439522240ull},
      {"DSC-LLB", "Laplace", 1.0, 2, 0x1.0dp+8, 2487940116149321182ull},
      {"DSC-LLB", "Laplace", 1.0, 8, 0x1.64p+6, 4494762591770768125ull},
      {"DSC-LLB", "Laplace", 1.0, 32, 0x1.88p+5, 14824782967290280737ull},
      {"DSC-LLB", "Stencil", 1.0, 2, 0x1.02p+8, 3448710956202564779ull},
      {"DSC-LLB", "Stencil", 1.0, 8, 0x1.28p+6, 5188057250875018471ull},
      {"DSC-LLB", "Stencil", 1.0, 32, 0x1.68p+5, 9795690572219932671ull},
      {"HLFET", "LU", 1.0, 2, 0x1.f8p+7, 2866002101573546507ull},
      {"HLFET", "LU", 1.0, 8, 0x1.78p+6, 11224988697090270126ull},
      {"HLFET", "LU", 1.0, 32, 0x1.64p+6, 11162335296930745147ull},
      {"HLFET", "Laplace", 1.0, 2, 0x1.0dp+8, 2166331798865394686ull},
      {"HLFET", "Laplace", 1.0, 8, 0x1.64p+6, 11066981106820789661ull},
      {"HLFET", "Laplace", 1.0, 32, 0x1.88p+5, 6143002717787423857ull},
      {"HLFET", "Stencil", 1.0, 2, 0x1.fap+7, 13262451890030830178ull},
      {"HLFET", "Stencil", 1.0, 8, 0x1p+6, 17738958599169588642ull},
      {"HLFET", "Stencil", 1.0, 32, 0x1.68p+5, 5193650674902327782ull},
      {"ISH", "LU", 1.0, 2, 0x1.f8p+7, 2866002101573546507ull},
      {"ISH", "LU", 1.0, 8, 0x1.64p+6, 1778480787211870927ull},
      {"ISH", "LU", 1.0, 32, 0x1.64p+6, 11162335296930745147ull},
      {"ISH", "Laplace", 1.0, 2, 0x1.0dp+8, 2166331798865394686ull},
      {"ISH", "Laplace", 1.0, 8, 0x1.64p+6, 11066981106820789661ull},
      {"ISH", "Laplace", 1.0, 32, 0x1.88p+5, 6143002717787423857ull},
      {"ISH", "Stencil", 1.0, 2, 0x1.fap+7, 13262451890030830178ull},
      {"ISH", "Stencil", 1.0, 8, 0x1p+6, 17738958599169588642ull},
      {"ISH", "Stencil", 1.0, 32, 0x1.68p+5, 5193650674902327782ull},
      {"HEFT", "LU", 1.0, 2, 0x1.f8p+7, 2866002101573546507ull},
      {"HEFT", "LU", 1.0, 8, 0x1.64p+6, 1778480787211870927ull},
      {"HEFT", "LU", 1.0, 32, 0x1.64p+6, 11162335296930745147ull},
      {"HEFT", "Laplace", 1.0, 2, 0x1.0dp+8, 2166331798865394686ull},
      {"HEFT", "Laplace", 1.0, 8, 0x1.64p+6, 11066981106820789661ull},
      {"HEFT", "Laplace", 1.0, 32, 0x1.88p+5, 6143002717787423857ull},
      {"HEFT", "Stencil", 1.0, 2, 0x1.fap+7, 13262451890030830178ull},
      {"HEFT", "Stencil", 1.0, 8, 0x1p+6, 17738958599169588642ull},
      {"HEFT", "Stencil", 1.0, 32, 0x1.68p+5, 5193650674902327782ull},
      {"CPOP", "LU", 1.0, 2, 0x1.02p+8, 1150372082275699190ull},
      {"CPOP", "LU", 1.0, 8, 0x1.2cp+6, 11803229244390180982ull},
      {"CPOP", "LU", 1.0, 32, 0x1.2cp+6, 7301391603182157436ull},
      {"CPOP", "Laplace", 1.0, 2, 0x1.0dp+8, 2166331798865394686ull},
      {"CPOP", "Laplace", 1.0, 8, 0x1.64p+6, 11066981106820789661ull},
      {"CPOP", "Laplace", 1.0, 32, 0x1.88p+5, 6143002717787423857ull},
      {"CPOP", "Stencil", 1.0, 2, 0x1.fap+7, 13262451890030830178ull},
      {"CPOP", "Stencil", 1.0, 8, 0x1p+6, 18327400954561258530ull},
      {"CPOP", "Stencil", 1.0, 32, 0x1.68p+5, 5193650674902327782ull},
      {"HEFT-model", "LU", 1.0, 2, 0x1.f8p+7, 2866002101573546507ull},
      {"HEFT-model", "LU", 1.0, 8, 0x1.64p+6, 1778480787211870927ull},
      {"HEFT-model", "LU", 1.0, 32, 0x1.64p+6, 11162335296930745147ull},
      {"HEFT-model", "Laplace", 1.0, 2, 0x1.0dp+8, 2166331798865394686ull},
      {"HEFT-model", "Laplace", 1.0, 8, 0x1.64p+6, 11066981106820789661ull},
      {"HEFT-model", "Laplace", 1.0, 32, 0x1.88p+5, 6143002717787423857ull},
      {"HEFT-model", "Stencil", 1.0, 2, 0x1.fap+7, 13262451890030830178ull},
      {"HEFT-model", "Stencil", 1.0, 8, 0x1p+6, 17738958599169588642ull},
      {"HEFT-model", "Stencil", 1.0, 32, 0x1.68p+5, 5193650674902327782ull},
      {"DUP", "LU", 1.0, 2, 0x1.f4p+7, 10513871021312791809ull},
      {"DUP", "LU", 1.0, 8, 0x1.4p+6, 2074338035960797559ull},
      {"DUP", "LU", 1.0, 32, 0x1.28p+6, 10792237694002783512ull},
      {"DUP", "Laplace", 1.0, 2, 0x1.09p+8, 2882941344195992302ull},
      {"DUP", "Laplace", 1.0, 8, 0x1.54p+6, 10177779342763293230ull},
      {"DUP", "Laplace", 1.0, 32, 0x1.4p+5, 6855958078807762536ull},
      {"DUP", "Stencil", 1.0, 2, 0x1.fap+7, 210540086608628610ull},
      {"DUP", "Stencil", 1.0, 8, 0x1p+6, 4109627612045212994ull},
      {"DUP", "Stencil", 1.0, 32, 0x1.68p+5, 3141628301801214422ull},
      {"DSC+work_map", "LU", 1.0, 2, 0x1.1ep+8, 7442588708818994324ull},
      {"DSC+work_map", "LU", 1.0, 8, 0x1.a8p+6, 16445116292271684282ull},
      {"DSC+work_map", "LU", 1.0, 32, 0x1.9p+6, 16020333964207839053ull},
      {"DSC+work_map", "Laplace", 1.0, 2, 0x1.1bp+8, 3537446842883889372ull},
      {"DSC+work_map", "Laplace", 1.0, 8, 0x1.74p+6, 17177031856375337081ull},
      {"DSC+work_map", "Laplace", 1.0, 32, 0x1.88p+5, 10127048815794247590ull},
      {"DSC+work_map", "Stencil", 1.0, 2, 0x1.6cp+8, 13910394241328292621ull},
      {"DSC+work_map", "Stencil", 1.0, 8, 0x1.6p+6, 2868468075045616759ull},
      {"DSC+work_map", "Stencil", 1.0, 32, 0x1.a8p+5, 1774725067636780575ull},
      {"Sarkar+wrap_map", "LU", 1.0, 2, 0x1.17p+8, 15077475583155392305ull},
      {"Sarkar+wrap_map", "LU", 1.0, 8, 0x1.d4p+6, 6636823629506415290ull},
      {"Sarkar+wrap_map", "LU", 1.0, 32, 0x1.d4p+6, 6636823629506415290ull},
      {"Sarkar+wrap_map", "Laplace", 1.0, 2, 0x1.12p+8,
       13136398675252948548ull},
      {"Sarkar+wrap_map", "Laplace", 1.0, 8, 0x1.8p+6, 11802866624936702806ull},
      {"Sarkar+wrap_map", "Laplace", 1.0, 32, 0x1.88p+5,
       6785816618528250648ull},
      {"Sarkar+wrap_map", "Stencil", 1.0, 2, 0x1.fap+7,
       13262451890030830178ull},
      {"Sarkar+wrap_map", "Stencil", 1.0, 8, 0x1.14p+6,
       11672836255499136506ull},
      {"Sarkar+wrap_map", "Stencil", 1.0, 32, 0x1.68p+5,
       5193650674902327782ull},
      {"Sarkar+work_map", "LU", 1.0, 2, 0x1.0ap+8, 16148728615564146709ull},
      {"Sarkar+work_map", "LU", 1.0, 8, 0x1.d4p+6, 6636823629506415290ull},
      {"Sarkar+work_map", "LU", 1.0, 32, 0x1.d4p+6, 6636823629506415290ull},
      {"Sarkar+work_map", "Laplace", 1.0, 2, 0x1.0dp+8, 7920675437617276225ull},
      {"Sarkar+work_map", "Laplace", 1.0, 8, 0x1.8cp+6,
       11312485616954478952ull},
      {"Sarkar+work_map", "Laplace", 1.0, 32, 0x1.88p+5,
       6701388395768719738ull},
      {"Sarkar+work_map", "Stencil", 1.0, 2, 0x1.fap+7,
       13262451890030830178ull},
      {"Sarkar+work_map", "Stencil", 1.0, 8, 0x1.14p+6,
       11672836255499136506ull},
      {"Sarkar+work_map", "Stencil", 1.0, 32, 0x1.68p+5,
       5193650674902327782ull},
  };
  expect_baseline_goldens(kTable, 500, /*random_weights=*/false);
}

// ---------------------------------------------------------------------------
// SpeedProfile: the segment-based execution model promoted out of the
// machine simulator.

TEST(SpeedProfileTest, TrivialProfileRunsAtUnitSpeed) {
  SpeedProfile p;
  p.finalize();
  EXPECT_TRUE(p.trivial());
  SpeedProfile::Trace tr = p.run(1.0, 4.0, CheckpointPolicy{});
  EXPECT_TRUE(tr.finished);
  EXPECT_EQ(tr.end, 5.0);
  EXPECT_EQ(tr.done, 4.0);
  EXPECT_EQ(tr.checkpoints, 0u);
}

TEST(SpeedProfileTest, SlowdownStretchesExecution) {
  SpeedProfile p;
  p.add(0.0, 0.5, 2.0);
  p.finalize();
  EXPECT_FALSE(p.trivial());
  // [0, 2) at half speed completes 1 unit; the remaining 3 run at full
  // speed after recovery, finishing at 5.
  SpeedProfile::Trace tr = p.run(0.0, 4.0, CheckpointPolicy{});
  EXPECT_TRUE(tr.finished);
  EXPECT_EQ(tr.end, 5.0);
  EXPECT_EQ(tr.done, 4.0);
}

TEST(SpeedProfileTest, RecoveryReturnsToExactlyUnitSpeed) {
  // finalize() recomputes each segment's product from scratch, so after the
  // last fault expires the speed is exactly 1.0 — no 1/factor drift.
  SpeedProfile p;
  p.add(0.0, 0.3, 1.0);
  p.finalize();
  SpeedProfile::Trace tr = p.run(1.0, 2.0, CheckpointPolicy{});
  EXPECT_TRUE(tr.finished);
  EXPECT_EQ(tr.end, 3.0);
}

TEST(SpeedProfileTest, KillCutsExecutionShort) {
  SpeedProfile p;
  p.add(0.0, 0.5);
  p.finalize();
  SpeedProfile::Trace tr = p.run(0.0, 4.0, CheckpointPolicy{}, 2.0);
  EXPECT_FALSE(tr.finished);
  EXPECT_EQ(tr.end, 2.0);
  EXPECT_EQ(tr.done, 1.0);  // 2 wall units at half speed
}

TEST(SpeedProfileTest, CheckpointsMakeWorkDurable) {
  SpeedProfile p;
  p.finalize();
  CheckpointPolicy ckpt{1.0, 0.25};
  // Mark at 1 work unit reached at t=1, write until 1.25; killed at 2.0
  // with 0.75 further units computed but not protected.
  SpeedProfile::Trace tr = p.run(0.0, 3.0, ckpt, 2.0);
  EXPECT_FALSE(tr.finished);
  EXPECT_EQ(tr.checkpoints, 1u);
  EXPECT_EQ(tr.saved, 1.0);
  EXPECT_EQ(tr.overhead, 0.25);
  EXPECT_EQ(tr.end, 2.0);
  EXPECT_EQ(tr.done, 1.75);
}

// ---------------------------------------------------------------------------
// Availability: admission instants and cold-cache horizons.

TEST(AvailabilityTest, DefaultsAdmitEverythingWarm) {
  Availability a;
  EXPECT_TRUE(a.is_alive(3));
  EXPECT_EQ(a.admission(3), 0.0);
  EXPECT_EQ(a.cold_horizon(3), 0.0);
  EXPECT_FALSE(a.any_cold());
}

TEST(AvailabilityTest, RecoveryAdmitsRejoinedProcessorsCold) {
  const std::vector<bool> admitted{true, true, false};
  const std::vector<Cost> available_from{0.0, 7.0, kInfiniteTime};
  Availability a = Availability::recovery(5.0, admitted, available_from);
  EXPECT_EQ(a.release, 5.0);
  EXPECT_TRUE(a.is_alive(0));
  EXPECT_TRUE(a.is_alive(1));
  EXPECT_FALSE(a.is_alive(2));
  // Never-killed processor: admitted at the release instant, warm.
  EXPECT_EQ(a.admission(0), 5.0);
  EXPECT_EQ(a.cold_horizon(0), 0.0);
  // Rejoined processor: admitted from its rejoin, cold before it.
  EXPECT_EQ(a.admission(1), 7.0);
  EXPECT_EQ(a.cold_horizon(1), 7.0);
  EXPECT_TRUE(a.any_cold());
}

// ---------------------------------------------------------------------------
// CostModel: the three communication modes, execution pricing, validation.

TEST(CostModelTest, CliqueFlatPricing) {
  CostModel m = CostModel::clique(4);
  EXPECT_EQ(m.mode(), CommMode::kClique);
  EXPECT_EQ(m.num_procs(), 4u);
  EXPECT_FALSE(m.exact_pricing());
  EXPECT_EQ(m.comm(0, 1, 2.0, 3.0), 5.0);
  EXPECT_EQ(m.comm(1, 1, 2.0, 3.0), 3.0);  // same-processor: free
  m.set_latency_factor(2.0);
  EXPECT_EQ(m.comm(0, 1, 2.0, 3.0), 7.0);
}

TEST(CostModelTest, ColdCacheRefetchPricing) {
  CostModel m = CostModel::clique(2);
  Availability a;
  a.cold_before = {0.0, 2.0};
  m.set_availability(a);
  EXPECT_TRUE(m.exact_pricing());  // cold caches force exact EST pricing
  // Local data predating proc 1's reboot is re-fetched at cold + comm.
  EXPECT_EQ(m.arrival(1, 1, 3.0, 1.5), 5.0);
  // Data produced after the reboot is warm.
  EXPECT_EQ(m.arrival(1, 1, 3.0, 2.5), 2.5);
  // Proc 0 never rebooted: local data always warm.
  EXPECT_EQ(m.arrival(0, 0, 3.0, 1.5), 1.5);
  // Remote data pays the network price regardless.
  EXPECT_EQ(m.arrival(0, 1, 3.0, 1.5), 4.5);
}

TEST(CostModelTest, AvailabilityGatesAdmission) {
  CostModel m = CostModel::clique(3);
  Availability a;
  a.release = 2.0;
  a.alive = {true, false, true};
  a.proc_release = {0.0, 0.0, 6.0};
  m.set_availability(a);
  EXPECT_TRUE(m.alive(0));
  EXPECT_FALSE(m.alive(1));
  EXPECT_EQ(m.admission(0), 2.0);
  EXPECT_EQ(m.admission(2), 6.0);
}

TEST(CostModelTest, RoutedHopsPricing) {
  Topology ring = Topology::ring(4);
  CostModel m = CostModel::routed(ring);
  EXPECT_EQ(m.mode(), CommMode::kRoutedHops);
  EXPECT_TRUE(m.exact_pricing());
  EXPECT_EQ(m.comm(0, 1, 3.0, 1.0), 4.0);   // 1 hop
  EXPECT_EQ(m.comm(0, 2, 3.0, 1.0), 7.0);   // 2 hops
  EXPECT_EQ(m.comm(2, 2, 3.0, 1.0), 1.0);   // local
  // commit() degenerates to comm(): nothing to reserve, nothing logged.
  EXPECT_EQ(m.commit(0, 2, 3.0, 1.0), 7.0);
  EXPECT_TRUE(m.occupancies().empty());
}

TEST(CostModelTest, LinkBusyProbeCommitAndLog) {
  Topology line = Topology::from_links(3, {{0, 1}, {1, 2}});
  CostModel m = CostModel::link_busy(line);
  // Probing prices against the reservations without claiming anything:
  // two identical probes answer the same.
  EXPECT_EQ(m.comm(0, 2, 2.0, 1.0), 5.0);  // two store-and-forward hops
  EXPECT_EQ(m.comm(0, 2, 2.0, 1.0), 5.0);
  EXPECT_TRUE(m.occupancies().empty());
  // Committing reserves both hops and matches the probe's answer.
  EXPECT_EQ(m.commit(0, 2, 2.0, 1.0), 5.0);
  ASSERT_EQ(m.occupancies().size(), 2u);
  EXPECT_EQ(m.total_hops(), 2u);
  // A later transfer over the first link queues behind the reservation:
  // the link is busy on [1, 3), so departing at 0 still arrives at 5.
  EXPECT_EQ(m.comm(0, 1, 2.0, 0.0), 5.0);
  EXPECT_EQ(m.commit(0, 1, 2.0, 0.0), 5.0);
  EXPECT_EQ(m.max_link_busy(), 4.0);    // the 0-1 link carried 2 + 2
  EXPECT_EQ(m.total_link_busy(), 6.0);
  // The commit log honors link exclusivity by construction.
  EXPECT_TRUE(validate_link_occupancies(line, m.occupancies()).empty());
  m.reset_links();
  EXPECT_TRUE(m.occupancies().empty());
  EXPECT_EQ(m.total_hops(), 0u);
  EXPECT_EQ(m.comm(0, 1, 2.0, 0.0), 2.0);  // reservations gone
}

TEST(CostModelTest, ExecutionPricing) {
  CostModel m = CostModel::clique(2);
  TaskGraph g = test::small_diamond();  // comp: 1, 3, 2, 1
  EXPECT_EQ(m.exec(g, 1, 0, 0.0), 3.0);
  m.set_speeds({1.0, 0.5});
  EXPECT_EQ(m.speed(1), 0.5);
  EXPECT_EQ(m.exec(g, 1, 1, 0.0), 6.0);
  EXPECT_EQ(m.mean_exec_work(2.0), 3.0);  // mean inverse speed = 1.5
  // Work override (checkpoint-resumed remainder) replaces the graph cost.
  m.set_work({kUndefinedTime, 1.0, kUndefinedTime, kUndefinedTime});
  EXPECT_EQ(m.work_of(g, 1), 1.0);
  EXPECT_EQ(m.work_of(g, 2), 2.0);  // kUndefinedTime falls back to comp
  EXPECT_EQ(m.exec(g, 1, 1, 0.0), 2.0);
  // Additive extra time lands after speed scaling.
  m.set_extra_time({0.0, 0.25, 0.0, 0.0});
  EXPECT_EQ(m.exec(g, 1, 1, 0.0), 2.25);
}

TEST(CostModelTest, SpeedProfilesTakePrecedenceOverStaticSpeeds) {
  CostModel m = CostModel::clique(2);
  m.set_speeds({1.0, 1.0});
  std::vector<SpeedProfile> profiles(2);
  profiles[1].add(0.0, 0.5);
  profiles[1].finalize();
  m.set_speed_profiles(std::move(profiles));
  EXPECT_EQ(m.exec_work(2.0, 0, 0.0), 2.0);  // trivial profile: static path
  EXPECT_EQ(m.exec_work(2.0, 1, 0.0), 4.0);  // integrated at half speed
}

TEST(CostModelTest, RejectsMalformedConfiguration) {
  CostModel m = CostModel::clique(2);
  EXPECT_THROW(m.set_speeds({1.0}), Error);          // wrong size
  EXPECT_THROW(m.set_speeds({1.0, 0.0}), Error);     // non-positive speed
  EXPECT_THROW(m.set_latency_factor(-1.0), Error);
  Availability a;
  a.alive = {true};
  EXPECT_THROW(m.set_availability(std::move(a)), Error);
  EXPECT_THROW(CostModel::clique(0), Error);
}

// ---------------------------------------------------------------------------
// Resume through the platform layer.

TEST(PlatformResume, EmptyPrefixMatchesFreshRun) {
  for (std::size_t i = 0; i < 6; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    Schedule fresh = flb.run(g, 4);
    FlbResumeContext ctx;
    ctx.alive.assign(4, true);
    Schedule resumed = flb.resume(g, Schedule(4, g.num_tasks()), ctx);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      EXPECT_EQ(resumed.proc(t), fresh.proc(t)) << g.name() << " task " << t;
      EXPECT_EQ(resumed.start(t), fresh.start(t)) << g.name() << " task " << t;
      EXPECT_EQ(resumed.finish(t), fresh.finish(t))
          << g.name() << " task " << t;
    }
  }
}

TEST(PlatformResume, LinkBusyRequiresTopology) {
  TaskGraph g = test::small_diamond();
  FlbScheduler flb;
  FlbResumeContext ctx;
  ctx.alive = {true, true};
  ctx.link_busy = true;  // but no topology
  EXPECT_THROW((void)flb.resume(g, Schedule(2, g.num_tasks()), ctx), Error);
}

// The hand example behind the resume-level link-contention claim.
//
// Topology (3 links):   1 --- 0 --- 2 --- 3
// Producer a ran on processor 0, which then died; its three consumers
// (comm 4, comp 0.5 each) must land on the survivors {1, 3}.
//
// Routed pricing is contention-free: proc 1 is one hop from the data
// (arrival 0.5 + 4 = 4.5), proc 3 is two hops (arrival 8.5), so all three
// consumers pile onto proc 1 and the makespan is 6.
//
// Link-busy pricing serializes the 0-1 transfers: the second consumer's
// message queues on [4.5, 8.5), which makes the *free* two-hop route to
// proc 3 (also arriving at 8.5) equally good and leaves the third consumer
// strictly better off at proc 3 / 8.5 than proc 1 / 12.5. The contended
// link changes the placement — one consumer migrates to the far survivor.
TaskGraph fan_out_graph() {
  TaskGraphBuilder b;
  b.set_name("contended-fan-out");
  TaskId a = b.add_task(0.5);
  TaskId c = b.add_task(0.5);
  TaskId d = b.add_task(0.5);
  TaskId e = b.add_task(0.5);
  b.add_edge(a, c, 4);
  b.add_edge(a, d, 4);
  b.add_edge(a, e, 4);
  return std::move(b).build();
}

TEST(PlatformResume, ContendedLinkSteersPlacement) {
  TaskGraph g = fan_out_graph();
  Topology topo = Topology::from_links(4, {{0, 1}, {0, 2}, {2, 3}});
  Schedule prefix(4, g.num_tasks());
  prefix.assign(0, 0, 0.0, 0.5);  // the producer's executed past

  FlbScheduler flb;
  FlbResumeContext ctx;
  ctx.alive = {false, true, false, true};
  ctx.release = 0.5;
  ctx.topology = &topo;

  Schedule routed = flb.resume(g, prefix, ctx);
  EXPECT_TRUE(is_valid_schedule(g, routed))
      << test::violations_to_string(g, routed);
  for (TaskId t = 1; t <= 3; ++t)
    EXPECT_EQ(routed.proc(t), 1u) << "routed pricing: consumer " << t;
  EXPECT_EQ(routed.makespan(), 6.0);

  std::vector<LinkOccupancy> occ;
  ctx.link_busy = true;
  ctx.occupancy_log = &occ;
  Schedule busy = flb.resume(g, prefix, ctx);
  EXPECT_TRUE(is_valid_schedule(g, busy))
      << test::violations_to_string(g, busy);
  int on_far = 0;
  for (TaskId t = 1; t <= 3; ++t) {
    if (busy.proc(t) == 3u) {
      ++on_far;
      EXPECT_EQ(busy.start(t), 8.5);
      EXPECT_EQ(busy.finish(t), 9.0);
    } else {
      EXPECT_EQ(busy.proc(t), 1u);
    }
  }
  EXPECT_EQ(on_far, 1) << "exactly one consumer migrates to processor 3";
  EXPECT_EQ(busy.makespan(), 9.0);
  EXPECT_FALSE(occ.empty());
  for (const Violation& v : validate_link_occupancies(topo, occ))
    ADD_FAILURE() << to_string(v);
}

TEST(PlatformResume, RoutedAndLinkBusySchedulesStayFeasible) {
  // Routed and link-busy prices are >= clique prices, so the resumed
  // schedules must stay clean under the clique validator, and the commit
  // log must honor link exclusivity.
  Topology topo = Topology::mesh2d(2, 2);
  for (std::size_t i = 0; i < 8; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    FlbScheduler flb;
    FlbResumeContext ctx;
    ctx.alive = std::vector<bool>(4, true);
    ctx.topology = &topo;
    Schedule routed = flb.resume(g, Schedule(4, g.num_tasks()), ctx);
    EXPECT_TRUE(is_valid_schedule(g, routed))
        << g.name() << "\n" << test::violations_to_string(g, routed);

    std::vector<LinkOccupancy> occ;
    ctx.link_busy = true;
    ctx.occupancy_log = &occ;
    Schedule busy = flb.resume(g, Schedule(4, g.num_tasks()), ctx);
    EXPECT_TRUE(is_valid_schedule(g, busy))
        << g.name() << "\n" << test::violations_to_string(g, busy);
    for (const Violation& v : validate_link_occupancies(topo, occ))
      ADD_FAILURE() << g.name() << ": " << to_string(v);
  }
}

// ---------------------------------------------------------------------------
// Repair through the platform layer: a contended link changes which
// survivor the repaired work lands on (closes the ROADMAP item "link
// contention during repair").

TEST(PlatformRepair, ContendedLinkChangesRepairedPlacement) {
  TaskGraph g = fan_out_graph();
  Schedule nominal(4, g.num_tasks());
  nominal.assign(0, 0, 0.0, 0.5);
  nominal.assign(1, 0, 0.5, 1.0);
  nominal.assign(2, 0, 1.0, 1.5);
  nominal.assign(3, 0, 1.5, 2.0);

  FaultPlan plan;
  plan.failures = {{0, 0.6}, {2, 0.6}};  // the producer's proc + proc 2 die
  SimOptions sopts;
  sopts.faults = &plan;
  SimResult partial = simulate(g, nominal, sopts);
  ASSERT_FALSE(partial.complete());

  Topology topo = Topology::from_links(4, {{0, 1}, {0, 2}, {2, 3}});
  RepairOptions ropts;
  ropts.strategy = RepairStrategy::kFlbResume;
  ropts.topology = &topo;

  // Routed repair: contention-free hop pricing sends every consumer to the
  // 1-hop survivor (proc 1).
  RepairResult routed = repair_schedule(g, nominal, partial, plan, ropts);
  EXPECT_EQ(routed.used, RepairStrategy::kFlbResume);
  for (TaskId t = 1; t <= 3; ++t)
    EXPECT_EQ(routed.schedule.proc(t), 1u) << "routed repair: consumer " << t;
  EXPECT_EQ(routed.schedule.makespan(), 6.0);
  EXPECT_TRUE(routed.link_occupancies.empty());

  // Link-busy repair: the serialized 0-1 transfers make the far survivor
  // (proc 3) the better home for one consumer.
  ropts.link_busy = true;
  RepairResult busy = repair_schedule(g, nominal, partial, plan, ropts);
  EXPECT_EQ(busy.used, RepairStrategy::kFlbResume);
  int on_far = 0;
  for (TaskId t = 1; t <= 3; ++t) {
    if (busy.schedule.proc(t) == 3u) {
      ++on_far;
      EXPECT_EQ(busy.schedule.start(t), 8.5);
    } else {
      EXPECT_EQ(busy.schedule.proc(t), 1u);
    }
  }
  EXPECT_EQ(on_far, 1) << "the contended link migrates exactly one consumer";
  EXPECT_EQ(busy.schedule.makespan(), 9.0);
  EXPECT_FALSE(busy.link_occupancies.empty());
  for (const Violation& v :
       validate_link_occupancies(topo, busy.link_occupancies))
    ADD_FAILURE() << to_string(v);
  // The continuation honors the durations oracle computed independently of
  // the placement engine.
  for (const Violation& v : validate_schedule(g, busy.schedule, busy.durations))
    ADD_FAILURE() << to_string(v);
}

TEST(PlatformRepair, LinkBusyRequiresTopology) {
  TaskGraph g = fan_out_graph();
  Schedule nominal(2, g.num_tasks());
  nominal.assign(0, 0, 0.0, 0.5);
  nominal.assign(1, 0, 0.5, 1.0);
  nominal.assign(2, 1, 4.5, 5.0);
  nominal.assign(3, 0, 1.0, 1.5);
  FaultPlan plan = FaultPlan::single_failure(1, 0.1);
  SimOptions sopts;
  sopts.faults = &plan;
  SimResult partial = simulate(g, nominal, sopts);
  RepairOptions ropts;
  ropts.link_busy = true;  // but no topology
  EXPECT_THROW((void)repair_schedule(g, nominal, partial, plan, ropts), Error);
}

// ---------------------------------------------------------------------------
// Comparison algorithms priced through the model.

TEST(AlgoModelOverloads, EtfCliqueSelectionIdentical) {
  for (std::size_t i = 0; i < 9; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    EtfScheduler etf;
    Schedule base = etf.run(g, 4);
    CostModel model = CostModel::clique(4);
    Schedule via = etf.run_on(g, model);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      EXPECT_EQ(via.proc(t), base.proc(t)) << g.name() << " task " << t;
      EXPECT_EQ(via.start(t), base.start(t)) << g.name() << " task " << t;
      EXPECT_EQ(via.finish(t), base.finish(t)) << g.name() << " task " << t;
    }
  }
}

TEST(AlgoModelOverloads, DlsCliqueSelectionIdentical) {
  for (std::size_t i = 0; i < 9; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    DlsScheduler dls;
    Schedule base = dls.run(g, 4);
    CostModel model = CostModel::clique(4);
    Schedule via = dls.run_on(g, model);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      EXPECT_EQ(via.proc(t), base.proc(t)) << g.name() << " task " << t;
      EXPECT_EQ(via.start(t), base.start(t)) << g.name() << " task " << t;
      EXPECT_EQ(via.finish(t), base.finish(t)) << g.name() << " task " << t;
    }
  }
}

TEST(AlgoModelOverloads, HeftModelMatchesHeteroMachine) {
  const std::vector<double> speeds{1.0, 0.5, 0.25, 2.0};
  for (std::size_t i = 0; i < 7; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    HeteroMachine machine(speeds);
    Schedule base = heft(g, machine);
    CostModel model = CostModel::clique(4);
    model.set_speeds(speeds);
    Schedule via = heft(g, model);
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      EXPECT_EQ(via.proc(t), base.proc(t)) << g.name() << " task " << t;
      EXPECT_EQ(via.start(t), base.start(t)) << g.name() << " task " << t;
      EXPECT_EQ(via.finish(t), base.finish(t)) << g.name() << " task " << t;
    }
  }
}

TEST(AlgoModelOverloads, LinkBusySchedulesAreFeasible) {
  Topology topo = Topology::ring(4);
  for (std::size_t i = 0; i < 6; ++i) {
    TaskGraph g = test::fuzz_graph(i);
    {
      CostModel m = CostModel::link_busy(topo);
      EtfScheduler etf;
      Schedule s = etf.run_on(g, m);
      EXPECT_TRUE(is_valid_schedule(g, s))
          << "ETF " << g.name() << "\n" << test::violations_to_string(g, s);
      EXPECT_TRUE(validate_link_occupancies(topo, m.occupancies()).empty())
          << "ETF " << g.name();
    }
    {
      CostModel m = CostModel::link_busy(topo);
      DlsScheduler dls;
      Schedule s = dls.run_on(g, m);
      EXPECT_TRUE(is_valid_schedule(g, s))
          << "DLS " << g.name() << "\n" << test::violations_to_string(g, s);
      EXPECT_TRUE(validate_link_occupancies(topo, m.occupancies()).empty())
          << "DLS " << g.name();
    }
    {
      CostModel m = CostModel::link_busy(topo);
      Schedule s = heft(g, m);
      EXPECT_TRUE(is_valid_schedule(g, s))
          << "HEFT " << g.name() << "\n" << test::violations_to_string(g, s);
      EXPECT_TRUE(validate_link_occupancies(topo, m.occupancies()).empty())
          << "HEFT " << g.name();
    }
  }
}

// ---------------------------------------------------------------------------
// HeteroMachine is now a thin facade over the model.

TEST(HeteroFacade, DelegatesToCostModel) {
  HeteroMachine machine({1.0, 0.5});
  EXPECT_EQ(machine.num_procs(), 2u);
  EXPECT_EQ(machine.speed(1), 0.5);
  EXPECT_EQ(machine.exec_time(3.0, 1), 6.0);
  EXPECT_EQ(machine.mean_exec_time(2.0), 3.0);
  const CostModel& m = machine.cost_model();
  EXPECT_EQ(m.mode(), CommMode::kClique);
  EXPECT_EQ(m.exec_work(3.0, 1), machine.exec_time(3.0, 1));
}

}  // namespace
}  // namespace flb
