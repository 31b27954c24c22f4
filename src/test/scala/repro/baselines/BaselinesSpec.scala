package repro.baselines

import repro.SparkSpec
import repro.core.ArbNucleusDecomp
import repro.testutil.TestGraphs

/** The reimplemented comparators (ND, PND, AND, AND-NN, PKT) must all agree
  * with the brute-force reference, and their work metrics must show the
  * relationships the paper reports (PND/ND rounds ≫ ARB rounds; AND
  * discovers at least as many s-cliques as ARB).
  */
class BaselinesSpec extends SparkSpec {

  private val rsValues = Seq((2, 3), (3, 4)) // Sariyüce et al. provide only these

  for ((name, g) <- TestGraphs.suite; (r, s) <- rsValues) {
    test(s"ND matches reference: $name (r=$r,s=$s)") {
      val ref = RefNucleus.decompose(g, r, s)
      val res = Nd.run(g, r, s)
      assert(res.coreMap === ref.coreMap)
    }
  }

  for ((name, g) <- TestGraphs.suite.take(5); (r, s) <- rsValues) {
    test(s"PND matches reference: $name (r=$r,s=$s)") {
      val ref = RefNucleus.decompose(g, r, s)
      val res = Pnd.run(g, r, s)
      assert(res.coreMap === ref.coreMap)
    }
  }

  for ((name, g) <- TestGraphs.suite; (r, s) <- rsValues) {
    test(s"PND and ND agree on cores, rounds and discoveries: $name (r=$r,s=$s)") {
      val nd = Nd.run(g, r, s)
      val pnd = Pnd.run(g, r, s)
      assert(pnd.core.toSeq === nd.core.toSeq)
      assert(pnd.rounds === nd.rounds)
      assert(pnd.discoveries === nd.discoveries)
    }
  }

  for ((name, g) <- TestGraphs.suite; (r, s) <- rsValues) {
    test(s"AND converges to reference: $name (r=$r,s=$s)") {
      val ref = RefNucleus.decompose(g, r, s)
      val res = And.run(g, r, s)
      assert(res.coreMap === ref.coreMap)
    }
  }

  for ((name, g) <- TestGraphs.suite.take(5); (r, s) <- rsValues) {
    test(s"AND-NN converges to reference: $name (r=$r,s=$s)") {
      val ref = RefNucleus.decompose(g, r, s)
      val res = AndNn.run(g, r, s)
      assert(res.coreMap === ref.coreMap)
    }
  }

  for ((name, g) <- TestGraphs.suite) {
    test(s"PKT truss matches reference (2,3): $name") {
      val ref = RefNucleus.decompose(g, 2, 3)
      val res = PktTruss.run(g)
      assert(res.coreMap === ref.coreMap)
    }
  }

  test("ND peels one clique per round (rounds == #r-cliques)") {
    val g = TestGraphs.randomWithCliques(40, 0.15, Seq(6), 5)
    val res = Nd.run(g, 2, 3)
    assert(res.rounds === res.index.num.toLong)
  }

  test("PND rounds vastly exceed ARB rounds (paper: 5608-84170x)") {
    val g = TestGraphs.randomWithCliques(60, 0.2, Seq(8, 7), 13)
    val arb = ArbNucleusDecomp.decompose(g, 2, 3)
    val pnd = Pnd.run(g, 2, 3)
    assert(pnd.rounds > 3L * arb.stats.rounds,
      s"pnd=${pnd.rounds} arb=${arb.stats.rounds}")
  }

  test("AND discovers at least as many s-cliques as ARB (paper: 1.69-46x)") {
    val g = TestGraphs.randomWithCliques(60, 0.2, Seq(8, 7), 13)
    val arb = ArbNucleusDecomp.decompose(g, 3, 4)
    val and = And.run(g, 3, 4)
    assert(and.discoveries >= arb.stats.totalScliqueDiscoveries,
      s"and=${and.discoveries} arb=${arb.stats.totalScliqueDiscoveries}")
  }

  test("AND-NN discovers no more s-cliques than AND (paper: notification helps)") {
    val g = TestGraphs.randomWithCliques(60, 0.2, Seq(8, 7), 13)
    val and = And.run(g, 3, 4)
    val andNn = AndNn.run(g, 3, 4)
    // the notification pass itself re-enumerates, so compare with slack
    assert(andNn.discoveries <= 3L * and.discoveries)
    assert(andNn.coreMap === and.coreMap)
  }

  test("CliqueIndex id lookup roundtrips") {
    val g = TestGraphs.random(40, 0.25, 1)
    val idx = new CliqueIndex(g, 3)
    val buf = new Array[Int](3)
    for (id <- 0 until idx.num) {
      idx.vertsOf(id, buf)
      assert(idx.idOf(buf) === id)
    }
    assert(idx.idOf(Array(0, 1, 2)) === -1 ||
      RefNucleus.allCliques(g, 3).exists(_.toSeq == Seq(0, 1, 2)))
  }

  test("CliqueIndex counts match reference incidence") {
    val g = TestGraphs.randomWithCliques(40, 0.15, Seq(6), 5)
    val idx = new CliqueIndex(g, 2)
    val (counts, numS) = idx.countScliques(3)
    val ref = RefNucleus.allCliques(g, 3)
    assert(numS === ref.length.toLong)
    // spot-check: sum of counts = 3 * #triangles
    assert(counts.map(_.toLong).sum === 3L * ref.length)
  }

  test("baseline maxCore equals ARB maxCore") {
    val g = TestGraphs.randomWithCliques(50, 0.15, Seq(7), 21)
    for ((r, s) <- rsValues) {
      val arb = ArbNucleusDecomp.decompose(g, r, s)
      assert(Nd.run(g, r, s).maxCore === arb.maxCore, s"($r,$s)")
    }
  }
}
