#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hh"
#include "trace.hh"

using namespace perfbench;

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt)
{
    EXPECT_DOUBLE_EQ(tailPercentile(1000), 99.0);
    EXPECT_DOUBLE_EQ(tailPercentile(5000), 99.0);
    EXPECT_DOUBLE_EQ(tailPercentile(500), 98.0);
    EXPECT_DOUBLE_EQ(tailPercentile(100), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(40), 75.0);
    // Below 20 samples not even the median has ten beyond it; the
    // median is still reported.
    EXPECT_DOUBLE_EQ(tailPercentile(20), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(5), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(0), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(1000, 90.0), 90.0);
}

TEST(PercentileRule, SummaryReportsCountAndSupportedTail)
{
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(double(i));
    const Summary s = summarize(v);
    EXPECT_EQ(s.n, 200u);
    EXPECT_DOUBLE_EQ(s.tailP, 95.0);
    EXPECT_DOUBLE_EQ(s.p50, 100.5);
    EXPECT_NEAR(s.tail, 190.05, 1e-9); // rank 0.95 * 199 = 189.05
}

TEST(PercentileRule, InterpolatesBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(PoissonSchedule, DeterministicBySeed)
{
    const auto a = poissonArrivals(42, 1000.0, 2.0);
    const auto b = poissonArrivals(42, 1000.0, 2.0);
    const auto c = poissonArrivals(43, 1000.0, 2.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(PoissonSchedule, ArrivalsAreOrderedInRangeAndAtRate)
{
    const auto a = poissonArrivals(7, 2000.0, 5.0);
    ASSERT_FALSE(a.empty());
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_LT(a[i - 1], a[i]);
    EXPECT_GE(a.front(), 0.0);
    EXPECT_LT(a.back(), 5.0);
    // 10000 expected; the Poisson count's sd is 100.
    EXPECT_NEAR(double(a.size()), 10000.0, 500.0);
    EXPECT_TRUE(poissonArrivals(7, 0.0, 5.0).empty());
}

TEST(LatenessAccounting, CountsOnlySendsPastTheLimit)
{
    Lateness late(0.005);
    EXPECT_FALSE(late.record(1.000, 0.999)); // early counts as on time
    EXPECT_FALSE(late.record(2.000, 2.004));
    EXPECT_TRUE(late.record(3.000, 3.010));
    EXPECT_FALSE(late.record(4.000, 4.005)); // exactly at the limit
    EXPECT_EQ(late.pastLimit(), 1u);
    EXPECT_NEAR(late.max(), 0.010, 1e-12);
}

TEST(ResultRecord, FailuresSumAndRenderByCause)
{
    Result r;
    r.attempted = 10;
    r.fail(Failure::Busy, 2);
    r.fail(Failure::WrongVerdict);
    EXPECT_EQ(r.failed(), 3u);
    EXPECT_TRUE(r.correct);
    r.wrong("bad");
    EXPECT_FALSE(r.correct);
    const std::string json = resultJson(r);
    EXPECT_NE(json.find("\"busy\":2"), std::string::npos);
    EXPECT_NE(json.find("\"wrong_verdict\":1"), std::string::npos);
    EXPECT_NE(json.find("\"failed\":3"), std::string::npos);
}

TEST(DigestStore, StoresThenComparesPerKey)
{
    const char *path = "pacbench_test_digests.txt";
    std::remove(path);
    EXPECT_TRUE(checkDigest(path, "bf_sweep seed=1", "aaaa"));
    EXPECT_TRUE(checkDigest(path, "bf_sweep seed=1", "aaaa"));
    EXPECT_FALSE(checkDigest(path, "bf_sweep seed=1", "bbbb"));
    EXPECT_TRUE(checkDigest(path, "bf_sweep seed=2", "bbbb"));
    std::remove(path);
}

TEST(Tracer, SpansNestAndSerialize)
{
    Tracer &t = Tracer::global();
    t.enable(true);
    uint64_t outer_id = 0;
    {
        ScopedSpan outer("test.outer");
        outer_id = outer.id();
        EXPECT_EQ(Tracer::current(), outer_id);
        ScopedSpan inner("test.inner", 3);
        EXPECT_EQ(Tracer::current(), inner.id());
    }
    EXPECT_EQ(Tracer::current(), 0u);
    t.count("test.counter", 2);
    t.enable(false);
    {
        ScopedSpan off("test.off");
        EXPECT_EQ(off.id(), 0u);
    }
    const char *path = "pacbench_test_trace.json";
    ASSERT_TRUE(t.write(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path);
    const std::string s = text.str();
    EXPECT_NE(s.find("\"name\":\"test.inner\""), std::string::npos);
    EXPECT_NE(s.find(
                  "\"parent\":" + std::to_string(outer_id) + ",\"req\":0,"
                  "\"n\":3"),
              std::string::npos);
    EXPECT_NE(s.find("\"test.counter\":2"), std::string::npos);
    EXPECT_EQ(s.find("test.off"), std::string::npos);
}
