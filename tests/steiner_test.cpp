#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <ostream>
#include <random>
#include <span>
#include <string>

#include "expt/net_generator.h"
#include "geom/bbox.h"
#include "geom/hanan.h"
#include "graph/mst.h"
#include "graph/routing_graph.h"
#include "steiner/iterated_one_steiner.h"

namespace ntr::steiner {
namespace {

TEST(OneSteinerGain, CrossNetGainsAtCenter) {
  // Pins at the arms of a plus sign: MST costs 6, the Steiner tree through
  // the center costs 4.
  const std::vector<geom::Point> pins{{1, 0}, {0, 1}, {2, 1}, {1, 2}};
  const std::vector<geom::Point> candidates{{1, 1}, {0, 0}};
  const std::vector<double> gains =
      OneSteinerGains(pins, candidates)(pins, graph::prim_mst(pins));
  EXPECT_NEAR(gains[0], 2.0, 1e-12);
  EXPECT_LE(gains[1], 1e-12);  // corner gains nothing
}

TEST(IteratedOneSteiner, SolvesCrossNetExactly) {
  graph::Net net{{{1, 0}, {0, 1}, {2, 1}, {1, 2}}};
  const SteinerResult res = iterated_one_steiner(net);
  ASSERT_EQ(res.steiner_points.size(), 1u);
  EXPECT_EQ(res.steiner_points[0], (geom::Point{1, 1}));
  EXPECT_TRUE(res.graph.is_tree());
  EXPECT_NEAR(res.graph.total_wirelength(), 4.0, 1e-12);
}

TEST(IteratedOneSteiner, LShapeNeedsNoSteinerPoint) {
  graph::Net net{{{0, 0}, {10, 0}, {10, 10}}};
  const SteinerResult res = iterated_one_steiner(net);
  EXPECT_TRUE(res.steiner_points.empty());
  EXPECT_NEAR(res.graph.total_wirelength(), 20.0, 1e-12);
}

class SteinerPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SteinerPropertyTest, NeverCostsMoreThanMst) {
  expt::NetGenerator gen(31 + GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const graph::Net net = gen.random_net(GetParam());
    const SteinerResult res = iterated_one_steiner(net);
    const double mst_cost = graph::mst_routing(net).total_wirelength();
    EXPECT_LE(res.graph.total_wirelength(), mst_cost * (1.0 + 1e-9));
    EXPECT_TRUE(res.graph.is_tree());
    EXPECT_TRUE(res.graph.is_connected());
  }
}

TEST_P(SteinerPropertyTest, SteinerNodesHaveDegreeAtLeastThree) {
  expt::NetGenerator gen(47 + GetParam());
  const graph::Net net = gen.random_net(GetParam());
  const SteinerResult res = iterated_one_steiner(net);
  for (graph::NodeId n = 0; n < res.graph.node_count(); ++n) {
    if (res.graph.node(n).kind == graph::NodeKind::kSteiner) {
      EXPECT_GE(res.graph.degree(n), 3u) << "Steiner node " << n;
    }
  }
}

TEST_P(SteinerPropertyTest, CostAtLeastHalfPerimeterBound) {
  expt::NetGenerator gen(59 + GetParam());
  const graph::Net net = gen.random_net(GetParam());
  const SteinerResult res = iterated_one_steiner(net);
  geom::BBox box(net.pins);
  EXPECT_GE(res.graph.total_wirelength(), box.half_perimeter() * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SteinerPropertyTest,
                         ::testing::Values<std::size_t>(5, 10, 20));

TEST(ExactSteiner, SolvesCrossAndRespectsGuard) {
  graph::Net cross{{{1, 0}, {0, 1}, {2, 1}, {1, 2}}};
  const ExactSteinerResult exact = exact_steiner_tree(cross);
  EXPECT_NEAR(exact.graph.total_wirelength(), 4.0, 1e-12);
  ASSERT_EQ(exact.steiner_points.size(), 1u);
  EXPECT_EQ(exact.steiner_points[0], (geom::Point{1, 1}));
  EXPECT_GT(exact.trees_evaluated, 1u);

  expt::NetGenerator gen(1);
  EXPECT_THROW(exact_steiner_tree(gen.random_net(12)), std::invalid_argument);
}

class ExactSteinerOptimalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactSteinerOptimalityTest, IteratedOneSteinerNearTheOptimum) {
  // Ground truth on tiny nets: the heuristic can never beat the exact
  // tree, and stays within a few percent of it (its published behavior).
  expt::NetGenerator gen(GetParam());
  const graph::Net net = gen.random_net(5);
  const ExactSteinerResult exact = exact_steiner_tree(net);
  const SteinerResult heuristic = iterated_one_steiner(net);
  EXPECT_GE(heuristic.graph.total_wirelength(),
            exact.graph.total_wirelength() * (1 - 1e-9));
  EXPECT_LE(heuristic.graph.total_wirelength(),
            exact.graph.total_wirelength() * 1.05);
  EXPECT_TRUE(exact.graph.is_tree());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSteinerOptimalityTest,
                         ::testing::Values<std::uint64_t>(11, 22, 33, 44, 55));

TEST(IteratedOneSteiner, PreservesNetNodeOrdering) {
  expt::NetGenerator gen(61);
  const graph::Net net = gen.random_net(9);
  const SteinerResult res = iterated_one_steiner(net);
  ASSERT_GE(res.graph.node_count(), net.size());
  EXPECT_EQ(res.graph.node(0).kind, graph::NodeKind::kSource);
  for (std::size_t i = 0; i < net.size(); ++i)
    EXPECT_EQ(res.graph.node(i).pos, net.pins[i]);
}

// ---- Goldens -------------------------------------------------------------
// The Steiner points (insertion order, hex floats) and the edge list of
// iterated_one_steiner, as a full scan with one Prim MST per candidate
// computes them. Any change to either is a change of routing for SLDRG,
// so they move only on purpose.

struct GoldenCase {
  const char* name;
  std::uint64_t side;  // lattice side in points; 0 for a NetGenerator net
  double pitch_um;     // lattice pitch
  std::uint64_t seed;
  std::size_t pins;
  const char* expected;
};

/// gtest writes each parameter into the listed test name; its default
/// raw-byte dump would hold the two pointers, which ASLR moves on every
/// run, so the names would differ from one listing to the next.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

/// `pins` distinct points of a side x side lattice with the given pitch,
/// drawn from raw mt19937_64 output (its sequence is fixed by the
/// standard, unlike the distributions'). Lattice nets are where gains tie
/// and candidates sit on octant boundaries. On an integer pitch the ties
/// are exact; on a pitch binary floating point cannot hold (0.3 um) gains
/// that tie in real arithmetic differ in the last bits, and the confirm
/// rule's slack and lowest-index tie break decide the pick.
graph::Net lattice_net(std::uint64_t seed, std::size_t pins, std::uint64_t side,
                       double pitch_um) {
  std::mt19937_64 rng(seed);
  graph::Net net;
  while (net.pins.size() < pins) {
    const std::uint64_t cell = rng() % (side * side);
    const geom::Point p{static_cast<double>(cell % side) * pitch_um,
                        static_cast<double>(cell / side) * pitch_um};
    if (std::find(net.pins.begin(), net.pins.end(), p) == net.pins.end())
      net.pins.push_back(p);
  }
  return net;
}

graph::Net golden_net(const GoldenCase& c) {
  return c.side == 0 ? expt::NetGenerator(c.seed).random_net(c.pins)
                     : lattice_net(c.seed, c.pins, c.side, c.pitch_um);
}

std::string render(const SteinerResult& res) {
  std::string out;
  char buf[64];
  for (const geom::Point& s : res.steiner_points) {
    std::snprintf(buf, sizeof buf, "%a,%a;", s.x, s.y);
    out += buf;
  }
  out += '|';
  for (const graph::GraphEdge& e : res.graph.edges())
    out += std::to_string(e.u) + '-' + std::to_string(e.v) + ',';
  return out;
}

const GoldenCase kGoldens[] = {
    {"uniform_n5", 0, 0.0, 5, 5,
     "0x1.a4aa627777aa4p+12,0x1.e1b64f207cc59p+9;"
     "0x1.199c5695cd9dcp+11,0x1.e1b64f207cc59p+9;"
     "|0-5,5-4,5-6,6-2,6-1,1-3,"},
    {"uniform_n10", 0, 0.0, 10, 10,
     "0x1.122c142f51cf2p+11,0x1.d6bcce99a7301p+12;"
     "0x1.87cbb440731c7p+11,0x1.3216f64e95bc8p+12;"
     "0x1.122c142f51cf2p+11,0x1.1b07f2c611608p+13;"
     "|0-3,3-12,12-9,12-5,9-10,10-2,10-1,1-11,11-4,4-6,11-8,8-7,"},
    {"uniform_n20", 0, 0.0, 20, 20,
     "0x1.cc635ef18362fp+11,0x1.fedb2ce0883c6p+11;"
     "0x1.c693c4101e379p+12,0x1.56da5d3b9c9d2p+12;"
     "0x1.bf49451efcd06p+12,0x1.30f0eb9b1e3fp+13;"
     "0x1.57c6eb2e666dfp+12,0x1.56da5d3b9c9d2p+12;"
     "0x1.34f7e1724a19p+10,0x1.19ab7d76b503p+12;"
     "0x1.6a91221080de7p+11,0x1.41d51f1988f45p+10;"
     "0x1.cc635ef18362fp+11,0x1.ddceaa74fba49p+10;"
     "0x1.7865a30e28b02p+12,0x1.ddceaa74fba49p+10;"
     "0x1.c693c4101e379p+12,0x1.f6b0193a442b2p+12;"
     "|0-22,0-28,28-13,28-9,22-17,22-2,17-16,9-21,21-19,19-23,23-7,7-11,"
     "21-5,23-6,6-20,20-8,8-26,26-3,26-25,25-14,25-4,3-27,27-15,27-1,"
     "20-24,24-10,24-12,12-18,"},
    {"uniform_n30", 0, 0.0, 30, 30,
     "0x1.09cf76f2a21a4p+12,0x1.41d924696cd37p+12;"
     "0x1.2151824ec7424p+11,0x1.1e6e924c830d2p+12;"
     "0x1.eca803214a679p+9,0x1.1e6e924c830d2p+12;"
     "0x1.c7ef0d0a76772p+12,0x1.1cb51b8600cddp+13;"
     "0x1.c7ef0d0a76772p+12,0x1.cef4b78504296p+12;"
     "0x1.e903564aa56b1p+11,0x1.098a128e38b42p+12;"
     "0x1.150bd70fab17bp+12,0x1.ab946f3e01dd8p+12;"
     "0x1.e63c248d097e6p+6,0x1.a59d66056ee5fp+11;"
     "0x1.004cc704bf07cp+13,0x1.675d2f8b26982p+11;"
     "0x1.11e75fd29b305p+13,0x1.cabd161ba8f8bp+12;"
     "0x1.9404c5e906826p+9,0x1.a59d66056ee5fp+11;"
     "0x1.150bd70fab17bp+12,0x1.9f082cdff81dap+12;"
     "0x1.11e75fd29b305p+13,0x1.410e324422b31p+12;"
     "|0-4,0-26,4-20,20-6,6-36,36-41,41-1,36-13,41-14,14-30,30-35,35-7,"
     "35-9,9-31,31-29,31-22,29-24,22-32,30-3,32-28,32-40,40-19,19-37,"
     "37-21,37-11,7-18,28-5,40-2,13-34,34-8,8-39,39-12,34-27,27-33,"
     "33-25,33-15,39-42,42-17,42-10,10-38,38-23,38-16,"},
    {"uniform_n40", 0, 0.0, 40, 40,
     "0x1.359e31daf4927p+11,0x1.19b45fe055bebp+12;"
     "0x1.26906075ce81bp+11,0x1.935a7c1d2ac37p+12;"
     "0x1.359e31daf4927p+11,0x1.7022bccbea18cp+12;"
     "0x1.04d4926618efap+13,0x1.8516cd09c9de7p+10;"
     "0x1.f5cc8cf7bb354p+12,0x1.56e921e44b82dp+12;"
     "0x1.7f595f866bd36p+10,0x1.dcc33c7fa7aa9p+11;"
     "0x1.ebfa022f7229fp+12,0x1.e5ed006ac6a7cp+12;"
     "0x1.674de3a4fd192p+12,0x1.a0c9908b09b8bp+9;"
     "0x1.fc376f791c57ep+12,0x1.c84a0e2c49ad7p+12;"
     "0x1.0512e838e5e31p+13,0x1.11da766b00987p+13;"
     "0x1.04d4926618efap+13,0x1.5d0804fd7a072p+8;"
     "0x1.0f4d604d37c54p+12,0x1.bba711419bc45p+12;"
     "0x1.674de3a4fd192p+12,0x1.8c496350b97bdp+10;"
     "0x1.26906075ce81bp+11,0x1.0509ada4b032bp+13;"
     "0x1.b4b49d8b8e538p+10,0x1.5802d49569744p+10;"
     "0x1.fc376f791c57ep+12,0x1.9f220cbb6b2e6p+12;"
     "0x1.c36b3dc33581fp+11,0x1.2f6d6d88799cp+13;"
     "|0-41,41-42,42-25,25-40,40-27,40-32,32-45,45-13,0-53,53-11,45-23,"
     "23-7,42-38,38-8,8-51,51-4,51-3,3-39,41-36,36-34,39-19,19-46,46-14,"
     "46-48,48-22,22-55,55-31,14-49,49-15,55-44,44-30,44-20,48-26,49-37,"
     "13-54,54-24,24-10,54-5,5-21,21-47,47-28,47-52,52-1,1-18,18-43,"
     "43-50,50-33,43-9,50-17,17-6,52-35,53-12,12-56,56-29,56-2,2-16,"},
    {"uniform_n50", 0, 0.0, 50, 50,
     "0x1.0383fe0c26497p+12,0x1.e130f7aa96fc2p+11;"
     "0x1.be09ff02970f4p+11,0x1.7f9b5af5eeae5p+9;"
     "0x1.6894f908e0c91p+12,0x1.8afc81bb5abf8p+10;"
     "0x1.064b354e93c42p+9,0x1.a0f08c52e1561p+12;"
     "0x1.51c5a93bee6d5p+11,0x1.0b83f87557321p+13;"
     "0x1.eee52c4c9d35ap+9,0x1.34c70e6a0820cp+9;"
     "0x1.af3ebd055617fp+11,0x1.527e84059d54p+11;"
     "0x1.51c5a93bee6d5p+11,0x1.202804b38fb54p+13;"
     "0x1.1e4592a1b91d8p+13,0x1.f8f834bb4c3b9p+12;"
     "0x1.1addbc5496021p+12,0x1.c41037a6d890cp+12;"
     "0x1.0383fe0c26497p+12,0x1.46673384fed6p+12;"
     "0x1.282a06707d8acp+12,0x1.72166d8488bc2p+12;"
     "0x1.97d4fb08ef354p+12,0x1.11802d6a6afc2p+12;"
     "0x1.d954513177586p+11,0x1.90813861b7432p+10;"
     "0x1.14cc01d7f398dp+12,0x1.0b83f87557321p+13;"
     "0x1.14cc01d7f398dp+12,0x1.24034c3468558p+13;"
     "0x1.3e9b01a07b882p+10,0x1.a0f08c52e1561p+12;"
     "0x1.9dd20e06e59bfp+12,0x1.ffd12652772a2p+12;"
     "0x1.02f0625a07953p+13,0x1.33af28a937d85p+9;"
     "0x1.4dcd533492fa1p+11,0x1.bc3a1f9d356eap+12;"
     "0x1.41d4333ed6ee7p+12,0x1.8afc81bb5abf8p+10;"
     "0x1.27715b44d70d2p+13,0x1.f8f834bb4c3b9p+12;"
     "|0-66,66-6,6-53,53-16,53-12,66-26,26-3,3-30,30-36,36-57,57-54,"
     "54-15,54-32,32-64,64-47,64-18,18-65,65-24,65-21,47-59,59-37,59-43,"
     "15-69,69-20,69-2,43-61,61-11,57-49,61-60,60-28,60-35,28-50,50-5,"
     "5-13,13-56,56-8,56-23,23-63,63-46,63-51,51-31,50-1,1-7,7-62,62-22,"
     "51-40,46-70,70-14,70-52,52-17,52-34,40-10,10-55,55-42,55-4,47-67,"
     "67-41,67-19,19-58,58-71,71-44,58-29,71-25,29-45,25-9,17-33,33-38,"
     "38-68,68-39,68-48,62-27,"},
    {"lattice8_n6", 8, 1.0, 6, 6,
     "|0-4,4-1,1-2,1-5,2-3,"},
    {"lattice8_n12", 8, 1.0, 12, 12,
     "0x1p+1,0x1.4p+2;"
     "|0-3,3-12,12-4,3-2,0-8,8-7,7-11,2-9,2-10,12-1,8-5,5-6,"},
    {"lattice8_n20", 8, 1.0, 20, 20,
     "|0-2,0-8,2-12,8-18,18-9,9-4,9-16,16-11,2-17,17-3,11-19,19-7,3-1,"
     "1-6,6-5,6-10,6-13,13-14,14-15,"},
    {"lattice8_n30", 8, 1.0, 30, 30,
     "0x1.8p+2,0x1.8p+1;"
     "0x1.8p+2,0x1.4p+2;"
     "|0-4,0-9,4-18,18-10,4-23,23-7,23-12,12-16,7-19,19-22,22-3,10-24,"
     "24-6,4-29,3-8,10-13,9-20,20-1,20-11,1-25,7-27,27-30,30-2,30-14,"
     "2-31,31-5,31-17,17-21,21-15,21-26,17-28,"},
    {"lattice8_n40", 8, 1.0, 40, 40,
     "|0-15,15-8,8-30,30-5,30-6,30-20,6-28,28-7,7-13,13-3,3-1,3-9,13-11,"
     "1-12,12-10,9-16,10-23,12-25,10-29,29-2,2-14,14-4,4-18,18-21,21-31,"
     "31-24,31-26,26-33,33-27,8-34,28-35,35-32,24-36,13-37,16-38,38-17,"
     "0-39,0-22,22-19,"},
    // The data/ corpus style: 500 um pitch over 5000 um.
    {"lattice500um_n10", 11, 500.0, 10, 10,
     "|0-4,4-1,0-5,0-6,6-7,5-9,9-3,4-8,8-2,"},
    {"lattice500um_n20", 11, 500.0, 20, 20,
     "0x1.388p+11,0x1.f4p+9;"
     "0x1.f4p+11,0x1.f4p+11;"
     "|0-6,6-5,5-9,0-14,5-7,7-17,17-16,7-4,4-12,4-20,20-13,13-1,20-15,"
     "0-18,15-2,2-3,3-19,3-21,21-8,21-10,10-11,"},
    {"lattice500um_n30", 11, 500.0, 30, 30,
     "0x1.f4p+9,0x1.194p+12;"
     "0x1.388p+11,0x0p+0;"
     "|0-24,24-12,12-16,0-18,18-2,2-11,11-8,8-15,15-4,4-10,15-28,28-19,"
     "19-3,3-17,3-23,23-30,4-20,30-22,22-13,22-14,13-27,27-9,16-25,25-1,"
     "1-31,31-5,9-26,31-29,20-7,30-21,26-6,"},
    {"lattice500um_n50", 11, 500.0, 50, 50,
     "0x1.388p+11,0x1.f4p+9;"
     "0x1.f4p+11,0x1.f4p+10;"
     "|0-28,28-49,49-44,44-48,0-51,51-21,51-29,29-16,16-1,21-43,43-3,"
     "3-20,43-23,20-22,16-30,30-50,50-6,6-18,18-10,50-24,24-8,8-13,"
     "13-39,10-11,11-26,26-19,26-35,35-41,11-7,7-33,33-37,7-9,9-12,9-34,"
     "34-46,46-15,15-42,42-4,4-2,2-27,4-31,4-32,32-17,17-25,25-14,42-40,"
     "42-45,46-5,44-36,27-38,1-47,"},
    {"lattice8_p100nm_n20", 8, 0.1, 1, 20,
     "0x0p+0,0x1.3333333333334p-2;"
     "0x0p+0,0x1.3333333333334p-1;"
     "0x1.999999999999ap-2,0x1.999999999999ap-4;"
     "0x1.999999999999ap-3,0x1.3333333333334p-1;"
     "|0-21,21-3,21-19,19-23,23-14,0-20,20-12,12-2,20-7,2-8,8-10,8-11,"
     "10-9,7-4,4-13,13-6,23-5,8-18,18-22,22-17,22-1,1-15,9-16,"},
    {"lattice8_p300nm_n12", 8, 0.3, 1, 12,
     "0x0p+0,0x1.3333333333333p-2;"
     "0x1.3333333333333p+0,0x1.3333333333333p+0;"
     "0x0p+0,0x1.cccccccccccccp-1;"
     "|0-3,0-14,14-7,7-12,12-4,12-6,14-2,2-8,8-10,8-11,10-13,13-9,13-5,"
     "11-1,"},
    {"lattice11_p700nm_n20", 11, 0.7, 1, 20,
     "0x1.0ccccccccccccp+2,0x1.3999999999999p+2;"
     "0x1.3999999999999p+2,0x1.cp+1;"
     "0x1.6666666666666p-1,0x1.6666666666666p-1;"
     "0x1.0ccccccccccccp+1,0x1.3999999999999p+2;"
     "|0-8,8-14,0-18,18-22,22-2,22-16,8-4,4-9,9-7,14-10,10-5,7-11,5-23,"
     "0-1,23-15,15-20,20-13,13-21,21-3,21-6,23-17,17-12,20-19,"},
    {"lattice11_p700nm_n30", 11, 0.7, 3, 30,
     "0x1.6666666666666p+2,0x1.6666666666666p+2;"
     "|0-3,3-8,8-7,3-22,7-23,23-15,15-14,14-28,14-1,1-4,4-29,0-27,8-30,"
     "30-6,30-19,19-12,19-11,6-24,24-26,26-9,9-21,21-20,21-2,2-16,28-10,"
     "28-18,18-25,25-5,29-13,2-17,"},
};

class SteinerGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SteinerGoldenTest, MatchesRecordedTree) {
  const GoldenCase& c = GetParam();
  EXPECT_EQ(render(iterated_one_steiner(golden_net(c))), c.expected);
}

INSTANTIATE_TEST_SUITE_P(Nets, SteinerGoldenTest, ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

// ---- Differential: the batched estimate against two Prim MSTs ------------

/// Checks the estimate of every Hanan candidate of `net` over its pins plus
/// `extra` against the Prim gain, and that the confirm rule of
/// iterated_one_steiner (best estimate first, while estimate + slack
/// reaches the best Prim gain so far) reaches the Prim pick: the largest
/// gain, the lowest index on ties. Returns how many it confirms.
std::size_t check_against_prim(const graph::Net& net, std::span<const geom::Point> extra) {
  std::vector<geom::Point> points = net.pins;
  points.insert(points.end(), extra.begin(), extra.end());
  const std::vector<geom::Point> candidates = geom::hanan_grid(net.pins);
  const std::vector<graph::IndexEdge> tree = graph::prim_mst(points);
  const double before = graph::edges_cost(points, tree);
  const double slack = kGainSlack * before;
  const std::vector<double> estimate = OneSteinerGains(net.pins, candidates)(points, tree);
  EXPECT_EQ(estimate.size(), candidates.size());

  std::vector<double> exact(candidates.size());
  std::vector<geom::Point> with = points;
  with.emplace_back();
  std::size_t pick = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    with.back() = candidates[i];
    exact[i] = before - graph::edges_cost(with, graph::prim_mst(with));
    EXPECT_LE(std::abs(estimate[i] - exact[i]), slack) << "candidate " << i;
    if (exact[i] > exact[pick]) pick = i;
  }

  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&estimate](std::size_t a, std::size_t b) {
    return estimate[a] != estimate[b] ? estimate[a] > estimate[b] : a < b;
  });
  double best = -std::numeric_limits<double>::infinity();
  std::size_t confirmed = 0;
  bool reached = false;
  for (const std::size_t i : order) {
    if (estimate[i] + slack < best) break;
    ++confirmed;
    best = std::max(best, exact[i]);
    reached = reached || i == pick;
  }
  EXPECT_TRUE(reached) << "the confirm set misses the Prim pick " << pick;
  return confirmed;
}

TEST(OneSteinerGain, EstimateMatchesPrimOnEveryCandidate) {
  std::size_t most_confirmed = 0;
  for (const GoldenCase& c : kGoldens) {
    SCOPED_TRACE(c.name);
    const graph::Net net = golden_net(c);
    // Over the pins alone, and with the heuristic's Steiner points after
    // them (the points each call scans past the pins).
    check_against_prim(net, {});
    const SteinerResult res = iterated_one_steiner(net);
    most_confirmed = std::max(most_confirmed, check_against_prim(net, res.steiner_points));
  }
  // Lattice nets have candidates with equal gains, so the tie path of the
  // confirm rule runs.
  EXPECT_GT(most_confirmed, 1u);
}

}  // namespace
}  // namespace ntr::steiner
