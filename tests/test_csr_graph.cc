/**
 * @file
 * Tests for the CSR graph substrate.
 */
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "graph/csr_graph.h"
#include "test_helpers.h"

namespace betty {
namespace {

CsrGraph
triangle()
{
    return CsrGraph(3, {{0, 1}, {1, 2}, {2, 0}});
}

TEST(CsrGraph, Counts)
{
    const auto g = triangle();
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 3);
}

TEST(CsrGraph, OutNeighbors)
{
    const auto g = triangle();
    ASSERT_EQ(g.outDegree(0), 1);
    EXPECT_EQ(g.outNeighbors(0)[0], 1);
    EXPECT_EQ(g.outNeighbors(2)[0], 0);
}

TEST(CsrGraph, InNeighbors)
{
    const auto g = triangle();
    ASSERT_EQ(g.inDegree(1), 1);
    EXPECT_EQ(g.inNeighbors(1)[0], 0);
}

TEST(CsrGraph, ParallelEdgesKept)
{
    const CsrGraph g(2, {{0, 1}, {0, 1}});
    EXPECT_EQ(g.numEdges(), 2);
    EXPECT_EQ(g.outDegree(0), 2);
    EXPECT_EQ(g.inDegree(1), 2);
}

TEST(CsrGraph, SelfLoopDropOption)
{
    const CsrGraph keep(2, {{0, 0}, {0, 1}});
    EXPECT_EQ(keep.numEdges(), 2);
    const CsrGraph drop(2, {{0, 0}, {0, 1}}, /*drop_self_loops=*/true);
    EXPECT_EQ(drop.numEdges(), 1);
    EXPECT_EQ(drop.inDegree(0), 0);
}

TEST(CsrGraph, IsolatedNodes)
{
    const CsrGraph g(5, {{0, 1}});
    EXPECT_EQ(g.outDegree(4), 0);
    EXPECT_EQ(g.inDegree(4), 0);
    EXPECT_TRUE(g.outNeighbors(4).empty());
}

TEST(CsrGraph, EmptyGraph)
{
    const CsrGraph g(0, {});
    EXPECT_EQ(g.numNodes(), 0);
    EXPECT_EQ(g.maxInDegree(), 0);
}

TEST(CsrGraph, MaxInDegree)
{
    const CsrGraph g(4, {{0, 3}, {1, 3}, {2, 3}, {0, 1}});
    EXPECT_EQ(g.maxInDegree(), 3);
}

TEST(CsrGraph, EdgeListRoundTrip)
{
    const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {0, 2}};
    const CsrGraph g(3, edges);
    auto out = g.edgeList();
    auto key = [](const Edge& e) { return e.src * 100 + e.dst; };
    std::vector<int64_t> got, want;
    for (const auto& e : out)
        got.push_back(key(e));
    for (const auto& e : edges)
        want.push_back(key(e));
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
}

TEST(CsrGraph, ToyGraphSymmetry)
{
    const auto g = testutil::toyGraph();
    // Built from undirected pairs: in-degree equals out-degree.
    for (int64_t v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(g.inDegree(v), g.outDegree(v)) << "node " << v;
}

TEST(CsrGraphDeathTest, OutOfRangeEdgePanics)
{
    EXPECT_DEATH(CsrGraph(2, {{0, 5}}), "out of range");
}

TEST(CsrGraphDeathTest, OutOfRangeQueryPanics)
{
    const auto g = triangle();
    EXPECT_DEATH(g.outNeighbors(7), "out of range");
}

} // namespace
} // namespace betty
