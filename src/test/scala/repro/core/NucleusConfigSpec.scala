package repro.core

import repro.SparkSpec
import repro.baselines.RefNucleus
import repro.testutil.TestGraphs

/** Config selection logic and the large-(r,s) end of the spectrum. */
class NucleusConfigSpec extends SparkSpec {

  test("optimal is the same for every r < s <= 7 except its table scheme") {
    val one = NucleusConfig(relabel = true, aggregation = UpdateAggregator.ListBufferKind, contraction = true)
    for (n <- Seq(1000, 1 << 20); s <- 2 to 7; r <- 1 until s) {
      val c = NucleusConfig.optimal(r, s, n)
      assert(c.scheme === NucleusConfig.smallestFeasibleScheme(r, n), s"(r=$r,s=$s) n=$n")
      assert(c.copy(scheme = one.scheme) === one, s"(r=$r,s=$s) n=$n")
    }
  }

  test("optimal falls back to multi-level for large r over large n") {
    val n = 1 << 20 // 20 bits: two-level caps at r=4
    assert(NucleusConfig.optimal(4, 5, n).scheme === TwoLevelArray)
    assert(NucleusConfig.optimal(5, 6, n).scheme === MultiLevel(3))
    assert(NucleusConfig.optimal(6, 7, n).scheme === MultiLevel(4))
  }

  test("labels are distinct across the tuning grid") {
    val labels = for {
      scheme <- Seq[TableScheme](OneLevel, TwoLevelArray, MultiLevel(3))
      agg <- Seq(UpdateAggregator.SimpleArrayKind, UpdateAggregator.ListBufferKind)
      relabel <- Seq(true, false)
    } yield NucleusConfig(scheme = scheme, aggregation = agg, relabel = relabel).label
    assert(labels.distinct.size === labels.size)
  }

  test("unoptimized label mentions one-level and simple array") {
    assert(NucleusConfig.unoptimized.label.contains("1-level"))
    assert(NucleusConfig.unoptimized.label.contains("simple-array"))
  }

  for ((r, s) <- Seq((1, 4), (1, 5), (2, 6), (3, 6), (5, 6), (4, 6), (2, 7), (5, 7), (6, 7))) {
    test(s"high-s decomposition matches reference: barbells (r=$r,s=$s)") {
      val g = TestGraphs.barbells // two K6s sharing a vertex
      val ref = RefNucleus.decompose(g, r, s)
      val res = ArbNucleusDecomp.decompose(g, r, s)
      assert(res.coreMap === ref.coreMap)
      assert(res.stats.rounds === ref.rounds)
    }
  }

  for ((r, s) <- Seq((4, 7), (5, 7), (6, 7))) {
    test(s"high-s decomposition matches reference: k8 (r=$r,s=$s)") {
      val g = TestGraphs.complete(8)
      val ref = RefNucleus.decompose(g, r, s)
      val res = ArbNucleusDecomp.decompose(g, r, s)
      assert(res.coreMap === ref.coreMap)
      // K8: every r-clique is in C(8-r, s-r) s-cliques, peeled in one round
      assert(res.stats.rounds === 1)
      assert(res.maxCore === Util.choose(8 - r, s - r).toLong)
    }
  }

  test("multi-level at the maximum depth (l = r) roundtrips") {
    val g = TestGraphs.randomWithCliques(40, 0.15, Seq(7), 3)
    val ref = RefNucleus.decompose(g, 4, 5)
    val res = ArbNucleusDecomp.decompose(g, 4, 5, NucleusConfig(scheme = MultiLevel(4)))
    assert(res.coreMap === ref.coreMap)
  }
}
