// Unit tests for the tensor substrate: construction, indexing, ops, RNG and
// serialization invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <random>

#include "core/real_fleet.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/serialize.hpp"

namespace comdml::tensor {
namespace {

TEST(Shape, SizeOfEmptyShapeIsOne) { EXPECT_EQ(shape_size({}), 1); }

TEST(Shape, SizeMultipliesExtents) { EXPECT_EQ(shape_size({2, 3, 4}), 24); }

TEST(Shape, ZeroExtentGivesZeroSize) { EXPECT_EQ(shape_size({5, 0, 2}), 0); }

TEST(Shape, NegativeExtentThrows) {
  EXPECT_THROW((void)shape_size({2, -1}), std::invalid_argument);
}

TEST(Shape, StrFormatsBrackets) {
  EXPECT_EQ(shape_str({3, 32, 32}), "[3, 32, 32]");
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ZeroFilledConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (const float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillConstruction) {
  Tensor t({4}, 2.5f);
  for (const float v : t.flat()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, AdoptsDataWithMatchingSize) {
  Tensor t({2, 2}, {1.f, 2.f, 3.f, 4.f});
  EXPECT_EQ(t.at({1, 0}), 3.f);
}

TEST(Tensor, MismatchedDataSizeThrows) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1.f}),
               std::invalid_argument);
}

TEST(Tensor, OfMakesRank1) {
  const Tensor t = Tensor::of({1.f, 2.f, 3.f});
  EXPECT_EQ(t.shape(), Shape({3}));
  EXPECT_EQ(t[2], 3.f);
}

TEST(Tensor, ScalarHasOneElement) {
  EXPECT_EQ(Tensor::scalar(7.f).size(), 1);
}

TEST(Tensor, MultiIndexRowMajorOrder) {
  Tensor t({2, 3}, {0.f, 1.f, 2.f, 3.f, 4.f, 5.f});
  EXPECT_EQ(t.at({0, 2}), 2.f);
  EXPECT_EQ(t.at({1, 1}), 4.f);
}

TEST(Tensor, AtOutOfBoundsThrows) {
  Tensor t({2, 3});
  EXPECT_THROW((void)t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW((void)t.at({0, 3}), std::invalid_argument);
  EXPECT_THROW((void)t.at({0}), std::invalid_argument);
}

TEST(Tensor, DimOutOfRangeThrows) {
  Tensor t({2, 3});
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_THROW((void)t.dim(2), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {0.f, 1.f, 2.f, 3.f, 4.f, 5.f});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at({2, 1}), 5.f);
}

TEST(Tensor, ReshapeSizeMismatchThrows) {
  Tensor t({2, 3});
  EXPECT_THROW((void)t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, EqualityIsValueBased) {
  Tensor a({2}, {1.f, 2.f});
  Tensor b({2}, {1.f, 2.f});
  EXPECT_TRUE(a == b);
  b[0] = 9.f;
  EXPECT_FALSE(a == b);
}

TEST(Tensor, NbytesCountsFloats) { EXPECT_EQ(Tensor({3, 2}).nbytes(), 24); }

// ---- ops --------------------------------------------------------------------

TEST(Ops, AddElementwise) {
  const Tensor a = Tensor::of({1.f, 2.f});
  const Tensor b = Tensor::of({10.f, 20.f});
  EXPECT_EQ(add(a, b), Tensor::of({11.f, 22.f}));
}

TEST(Ops, SubElementwise) {
  EXPECT_EQ(sub(Tensor::of({3.f}), Tensor::of({1.f})), Tensor::of({2.f}));
}

TEST(Ops, MulElementwise) {
  EXPECT_EQ(mul(Tensor::of({3.f, 2.f}), Tensor::of({2.f, 0.5f})),
            Tensor::of({6.f, 1.f}));
}

TEST(Ops, ShapeMismatchThrows) {
  EXPECT_THROW((void)add(Tensor({2}), Tensor({3})), std::invalid_argument);
}

TEST(Ops, ScaleMultiplies) {
  EXPECT_EQ(scale(Tensor::of({1.f, -2.f}), 3.f), Tensor::of({3.f, -6.f}));
}

TEST(Ops, AxpyAccumulates) {
  Tensor y = Tensor::of({1.f, 1.f});
  axpy(2.0f, Tensor::of({1.f, 3.f}), y);
  EXPECT_EQ(y, Tensor::of({3.f, 7.f}));
}

TEST(Ops, SumAndMean) {
  const Tensor t = Tensor::of({1.f, 2.f, 3.f, 4.f});
  EXPECT_FLOAT_EQ(sum(t), 10.f);
  EXPECT_FLOAT_EQ(mean(t), 2.5f);
}

TEST(Ops, MaxAbs) {
  EXPECT_FLOAT_EQ(max_abs(Tensor::of({-3.f, 2.f})), 3.f);
}

TEST(Ops, L2Norm) {
  EXPECT_NEAR(l2_norm(Tensor::of({3.f, 4.f})), 5.0f, 1e-6);
}

TEST(Ops, ArgmaxPicksFirstOfTies) {
  EXPECT_EQ(argmax(Tensor::of({1.f, 5.f, 5.f})), 1);
}

TEST(Ops, ArgmaxRows) {
  const Tensor t({2, 3}, {0.f, 2.f, 1.f, 5.f, 4.f, 3.f});
  const auto rows = argmax_rows(t);
  EXPECT_EQ(rows, (std::vector<int64_t>{1, 0}));
}

TEST(Ops, MatmulBasic) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.f);
}

TEST(Ops, MatmulIncompatibleThrows) {
  EXPECT_THROW((void)matmul(Tensor({2, 3}), Tensor({2, 3})),
               std::invalid_argument);
}

TEST(Ops, MatmulTnMatchesTransposedMatmul) {
  Rng rng(1);
  const Tensor a = rng.normal_tensor({4, 3}, 0, 1);
  const Tensor b = rng.normal_tensor({4, 5}, 0, 1);
  EXPECT_TRUE(allclose(matmul_tn(a, b), matmul(transpose2d(a), b), 1e-4f));
}

TEST(Ops, MatmulNtMatchesTransposedMatmul) {
  Rng rng(2);
  const Tensor a = rng.normal_tensor({4, 3}, 0, 1);
  const Tensor b = rng.normal_tensor({5, 3}, 0, 1);
  EXPECT_TRUE(allclose(matmul_nt(a, b), matmul(a, transpose2d(b)), 1e-4f));
}

TEST(Ops, TransposeInvolution) {
  Rng rng(3);
  const Tensor a = rng.normal_tensor({3, 7}, 0, 1);
  EXPECT_TRUE(allclose(transpose2d(transpose2d(a)), a));
}

TEST(Ops, AllcloseRespectsTolerance) {
  EXPECT_TRUE(allclose(Tensor::of({1.f}), Tensor::of({1.0005f}), 1e-3f));
  EXPECT_FALSE(allclose(Tensor::of({1.f}), Tensor::of({1.01f}), 1e-3f));
}

// ---- rng --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformWithinRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(2.0f, 3.0f);
    EXPECT_GE(v, 2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, BelowWithinRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.below(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(5);
  double s = 0, s2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.0f, 2.0f);
    s += v;
    s2 += v * v;
  }
  const double mean = s / n;
  const double var = s2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LaplaceZeroMeanAndScale) {
  Rng rng(6);
  double s = 0, sa = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.laplace(2.0f);
    s += v;
    sa += std::fabs(v);
  }
  EXPECT_NEAR(s / n, 0.0, 0.08);
  EXPECT_NEAR(sa / n, 2.0, 0.08);  // E|X| = scale
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(7);
  const auto v = rng.dirichlet(0.5, 10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_NEAR(std::accumulate(v.begin(), v.end(), 0.0), 1.0, 1e-9);
  for (const double p : v) EXPECT_GE(p, 0.0);
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  Rng rng(8);
  // With alpha = 0.1 the largest share should usually dominate.
  double max_share = 0.0;
  for (int t = 0; t < 20; ++t) {
    const auto v = rng.dirichlet(0.1, 5);
    max_share += *std::max_element(v.begin(), v.end());
  }
  EXPECT_GT(max_share / 20.0, 0.6);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int64_t> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, HeNormalStddev) {
  Rng rng(10);
  const Tensor t = rng.he_normal({64, 64}, 128);
  double s2 = 0;
  for (const float v : t.flat()) s2 += static_cast<double>(v) * v;
  const double stddev = std::sqrt(s2 / static_cast<double>(t.size()));
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 128.0), 0.01);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng a(11);
  Rng child = a.fork();
  // The parent's subsequent draws differ from the child's.
  EXPECT_NE(a.uniform(), child.uniform());
}

// ---- the Mersenne Twister engine ---------------------------------------------

TEST(Mt19937_64, DrawsWhatTheStandardEngineDraws) {
  for (const uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                              ~uint64_t{0}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Mt19937_64 ours(seed);
    std::mt19937_64 std_engine(seed);
    for (int i = 0; i < 100000; ++i) ASSERT_EQ(ours(), std_engine()) << i;
  }
}

TEST(Mt19937_64, TenThousandthDrawOfTheDefaultSeed) {
  // The C++ standard fixes this value for mt19937_64 default-constructed
  // (seed 5489).
  Mt19937_64 e(5489);
  for (int i = 0; i < 9999; ++i) (void)e();
  EXPECT_EQ(e(), 9981545732273789042ULL);
}

/// The same helpers over std::mt19937_64, as Rng computed them before it
/// kept its own engine.
struct StdRng {
  std::mt19937_64 e;
  float uniform(float lo, float hi) {
    return std::uniform_real_distribution<float>(lo, hi)(e);
  }
  float normal(float mean, float stddev) {
    return std::normal_distribution<float>(mean, stddev)(e);
  }
  int64_t below(int64_t n) {
    return std::uniform_int_distribution<int64_t>(0, n - 1)(e);
  }
};

TEST(Rng, HelpersMatchTheStandardEngineSequences) {
  Rng ours(7);
  StdRng ref{std::mt19937_64(7)};
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(ours.uniform(-2.0f, 3.0f), ref.uniform(-2.0f, 3.0f)) << i;
    ASSERT_EQ(ours.normal(0.5f, 2.0f), ref.normal(0.5f, 2.0f)) << i;
    ASSERT_EQ(ours.below(1 + i), ref.below(1 + i)) << i;
  }
  std::vector<int64_t> v(97), w(97);
  std::iota(v.begin(), v.end(), 0);
  std::iota(w.begin(), w.end(), 0);
  ours.shuffle(v);
  for (size_t i = w.size(); i > 1; --i)
    std::swap(w[i - 1], w[static_cast<size_t>(
                            ref.below(static_cast<int64_t>(i)))]);
  EXPECT_EQ(v, w);
  // fork() seeds the child with the parent's next raw draw.
  Rng child = ours.fork();
  StdRng ref_child{std::mt19937_64(ref.e())};
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(child.normal(0.0f, 1.0f), ref_child.normal(0.0f, 1.0f)) << i;
  EXPECT_EQ(ours.below(1000), ref.below(1000));
}

/// An engine that returns one fixed word, to feed a chosen output to
/// std::generate_canonical.
struct FixedWord {
  using result_type = uint64_t;
  uint64_t z;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }
  uint64_t operator()() const { return z; }
};

bool same_bits(float a, float b) { return std::memcmp(&a, &b, 4) == 0; }

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * 4) == 0);
}

TEST(Rng, BlockFillAndScalarDrawsMatchTheStandardDistributions) {
  // The conversion and the canonical float on edge words: exact ties,
  // round-to-even cases past 2^63, and words that round up to 1.
  std::vector<uint64_t> edges{0,
                              1,
                              (uint64_t{1} << 24) + 1,
                              (uint64_t{1} << 53) + 1,
                              (uint64_t{1} << 63) - 1,
                              uint64_t{1} << 63,
                              (uint64_t{1} << 63) + 1,
                              (uint64_t{1} << 63) + (uint64_t{1} << 39),
                              (uint64_t{1} << 63) + (uint64_t{1} << 39) + 1,
                              ~uint64_t{0} - (uint64_t{1} << 39) + 1,
                              ~uint64_t{0} - (uint64_t{1} << 39),
                              ~uint64_t{0} - (uint64_t{1} << 39) + 2,
                              ~uint64_t{0} - (uint64_t{1} << 40) + 1,
                              ~uint64_t{0}};
  std::mt19937_64 words(3);
  for (int i = 0; i < 20000; ++i) edges.push_back(words() >> (i % 64));
  for (const uint64_t z : edges) {
    ASSERT_TRUE(same_bits(detail::u64_to_float(z), static_cast<float>(z)))
        << z;
    FixedWord w{z};
    ASSERT_TRUE(same_bits(detail::canonical(z),
                          std::generate_canonical<float, 24>(w)))
        << z;
  }
  EXPECT_EQ(detail::canonical(~uint64_t{0}), std::nextafter(1.0f, 0.0f));

  // normal(), uniform() and fill_normal() against the standard
  // distributions on the standard engine. Fills start at odd and even
  // positions inside a state block (each uniform draw shifts the parity),
  // and each leaves the engine where as many normal() calls leave it.
  const std::pair<float, float> params[] = {
      {0.0f, 1.0f}, {0.5f, 2.0f}, {0.0f, std::sqrt(2.0f / 27.0f)},
      {0.0f, 1e-3f}};
  const size_t lengths[] = {0, 1, 2, 311, 312, 313, 4097, size_t{1} << 20};
  for (const uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                              ~uint64_t{0}}) {
    for (const auto& [mean, stddev] : params) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " mean " +
                   std::to_string(mean) + " stddev " +
                   std::to_string(stddev));
      Rng block(seed), scalar(seed);
      StdRng ref{std::mt19937_64(seed)};
      for (const size_t n : lengths) {
        std::vector<float> got(n), one(n), want(n);
        block.fill_normal(got, mean, stddev);
        for (size_t i = 0; i < n; ++i) {
          one[i] = scalar.normal(mean, stddev);
          want[i] = ref.normal(mean, stddev);
        }
        ASSERT_TRUE(same_bits(got, want)) << n;
        ASSERT_TRUE(same_bits(one, want)) << n;
        ASSERT_EQ(block.state(), scalar.state()) << n;
        const float u = ref.uniform(-2.0f, 3.0f);
        ASSERT_TRUE(same_bits(block.uniform(-2.0f, 3.0f), u)) << n;
        ASSERT_TRUE(same_bits(scalar.uniform(-2.0f, 3.0f), u)) << n;
      }
    }
  }
}

TEST(Rng, StateTakenMidBlockResumesTheExactSequence) {
  Rng a(123);
  for (int i = 0; i < 500; ++i) (void)a.below(1 << 20);  // past one twist
  const std::string saved = a.state();
  EXPECT_EQ(saved.size(), Rng::kStateBytes);
  EXPECT_EQ(saved.size(), 2504u);
  std::vector<int64_t> want;
  for (int i = 0; i < 1000; ++i) want.push_back(a.below(1 << 20));
  Rng b(999);
  b.set_state(saved);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(b.below(1 << 20), want[i]) << i;
  EXPECT_EQ(a.state(), b.state());
}

TEST(Rng, SetStateRejectsWrongLengthAndPosition) {
  Rng a(5);
  const std::string good = a.state();
  EXPECT_THROW(a.set_state(good.substr(0, good.size() - 1)), RngStateError);
  EXPECT_THROW(a.set_state(good + "x"), RngStateError);
  EXPECT_THROW(a.set_state(""), RngStateError);
  std::string bad = good;
  const uint64_t past = 313;
  std::memcpy(bad.data() + 312 * 8, &past, 8);
  EXPECT_THROW(a.set_state(bad), RngStateError);
  // A rejected state leaves the generator untouched.
  EXPECT_EQ(a.state(), good);
  const uint64_t end = 312;  // the next draw twists first
  std::memcpy(bad.data() + 312 * 8, &end, 8);
  EXPECT_NO_THROW(a.set_state(bad));
}

TEST(Rng, CheckpointsOfTheTextRngStateAreRefusedByVersion) {
  // Frames of versions 1 and 2 are refused: v1 carried std::mt19937_64's
  // decimal text state, v2 nested each agent in an export blob. A restore
  // names the frame's version and the one it reads.
  Rng rng(3);
  const data::Dataset ds = data::make_blobs(40, 2, 4, 0.3f, rng);
  std::vector<data::Dataset> shards;
  for (const auto& idx : data::iid_partition(ds.size(), 2, rng))
    shards.push_back(ds.subset(idx));
  std::vector<sim::ResourceProfile> profiles(2, {1.0, 100.0});
  core::RealFleet fleet([](Rng& r) { return nn::mlp({4, 8, 2}, r); }, 2,
                        shards, sim::Topology::full_mesh(profiles), {});
  const auto expect_refused = [&](std::vector<uint8_t> blob, uint32_t old,
                                  uint32_t now) {
    std::memcpy(blob.data() + 4, &old, 4);
    try {
      fleet.restore(blob);
      FAIL() << "version " << old << " restored";
    } catch (const core::CheckpointError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(old)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("expected " + std::to_string(now)),
                std::string::npos)
          << what;
    }
  };
  expect_refused(fleet.checkpoint(), 2, 3);
  expect_refused(fleet.checkpoint_shard(0, 1, {0, 1}), 1, 3);
}

// ---- serialize --------------------------------------------------------------

TEST(Serialize, RoundTripSingleTensor) {
  Rng rng(12);
  const Tensor t = rng.normal_tensor({2, 3, 4}, 0, 1);
  const auto bytes = to_bytes(t);
  size_t offset = 0;
  const Tensor back = from_bytes(bytes, offset);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_TRUE(t == back);
}

TEST(Serialize, RoundTripTensorPack) {
  Rng rng(13);
  std::vector<Tensor> ts{rng.normal_tensor({3}, 0, 1),
                         rng.normal_tensor({2, 2}, 0, 1),
                         Tensor({1}, 5.0f)};
  const auto bytes = pack_tensors(ts);
  EXPECT_EQ(static_cast<int64_t>(bytes.size()), wire_bytes(ts));
  const auto back = unpack_tensors(bytes);
  ASSERT_EQ(back.size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) EXPECT_TRUE(ts[i] == back[i]);
}

TEST(Serialize, TruncatedInputThrows) {
  const auto bytes = to_bytes(Tensor({4}, 1.0f));
  auto cut = std::vector<uint8_t>(bytes.begin(), bytes.end() - 4);
  size_t offset = 0;
  EXPECT_THROW((void)from_bytes(cut, offset), std::invalid_argument);
}

TEST(Serialize, TrailingBytesThrow) {
  auto bytes = pack_tensors({Tensor({2}, 1.0f)});
  bytes.push_back(0);
  EXPECT_THROW((void)unpack_tensors(bytes), std::invalid_argument);
}

// Length prefixes come from untrusted bytes: each count is checked against
// the bytes left before anything is sized from it, so a 4-byte body that
// claims 2^28 (or 2^32 - 1) elements is a typed error, not a multi-GiB
// allocation or std::bad_alloc.
TEST(Serialize, LengthPrefixLiesThrowBeforeAllocating) {
  for (const uint32_t claim : {uint32_t{1} << 28, uint32_t{0xFFFFFFFF}}) {
    ByteWriter w;
    w.u32(claim);
    w.u32(0);  // four bytes of "payload"
    const std::vector<uint8_t>& body = w.bytes();
    {
      ByteReader r(body);
      EXPECT_THROW((void)r.f64s(), std::invalid_argument) << claim;
    }
    {
      ByteReader r(body);
      EXPECT_THROW((void)r.i64s(), std::invalid_argument) << claim;
    }
    {
      ByteReader r(body);
      EXPECT_THROW((void)r.tensors(), std::invalid_argument) << claim;
    }
    EXPECT_THROW((void)unpack_tensors(body), std::invalid_argument) << claim;
  }
  // A shape whose extents multiply past the input (and past 2^64).
  ByteWriter w;
  w.u32(1);  // one tensor
  w.u32(2);  // rank 2
  w.i64(int64_t{1} << 40);
  w.i64(int64_t{1} << 40);
  EXPECT_THROW((void)unpack_tensors(w.bytes()), std::invalid_argument);
}

TEST(Serialize, CheckedArraysRoundTrip) {
  const std::vector<double> f{1.5, -0.0, 3.25e-300};
  const std::vector<int64_t> i{-7, 0, int64_t{1} << 62};
  ByteWriter w;
  w.f64s(f);
  w.i64s(i);
  w.f64s({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.f64s(), f);
  EXPECT_EQ(r.i64s(), i);
  EXPECT_TRUE(r.f64s().empty());
  r.expect_done();
}

TEST(Serialize, ImplausibleRankThrows) {
  std::vector<uint8_t> bytes(sizeof(uint32_t), 0xFF);
  size_t offset = 0;
  EXPECT_THROW((void)from_bytes(bytes, offset), std::invalid_argument);
}

}  // namespace
}  // namespace comdml::tensor
