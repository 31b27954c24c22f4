package repro.baselines

import repro.SparkSpec
import repro.core.ArbNucleusDecomp
import repro.graph.CSRGraph
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
      assert(pnd.coreMap === nd.coreMap)
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
    assert(res.rounds === res.table.numCliques.toLong)
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

  test("the shared count phase gives each slot the reference s-cliques through its clique") {
    val g = TestGraphs.randomWithCliques(40, 0.15, Seq(6), 5)
    for ((r, s) <- rsValues) {
      val table = new BaselineTable(g, r, s).table
      val through = RefNucleus.allCliques(g, s).toSeq
        .flatMap(_.toSeq.combinations(r))
        .groupMapReduce(identity)(_ => 1L)(_ + _)
      val clique = new Array[Int](r)
      assert(table.numCliques === RefNucleus.allCliques(g, r).length, s"($r,$s)")
      table.foreachOccupied { slot =>
        table.cliqueOf(slot, clique)
        assert(table.count(slot) === through.getOrElse(clique.toSeq, 0L), s"($r,$s) ${clique.toSeq}")
      }
    }
  }

  // the name is that of the sorted-key index this count phase replaced
  test("CliqueIndex counts match reference incidence") {
    val g = TestGraphs.randomWithCliques(40, 0.15, Seq(6), 5)
    val table = new BaselineTable(g, 2, 3).table
    val ref = RefNucleus.allCliques(g, 3)
    var sum = 0L
    table.foreachOccupied { slot => sum += table.count(slot) }
    // each triangle is counted once by each of its 3 edges
    assert(sum === 3L * ref.length)
  }

  test("BaselineResult's dense view lists every clique once with its core") {
    val res = Nd.run(TestGraphs.randomWithCliques(40, 0.15, Seq(6), 5), 3, 4)
    val buf = new Array[Int](3)
    val dense = (0 until res.index.num).map { id => res.index.vertsOf(id, buf); buf.toSeq -> res.core(id) }
    assert(res.index.r === 3)
    assert(dense.size === res.table.numCliques)
    assert(dense.toMap === res.coreMap)
  }

  private val wideBaselines: Seq[(String, (CSRGraph, Int, Int) => BaselineResult)] = Seq(
    "ND" -> Nd.run, "PND" -> Pnd.run, "AND" -> ((g, r, s) => And.run(g, r, s)), "AND-NN" -> AndNn.run)

  for ((name, run) <- wideBaselines; (r, s) <- Seq((4, 5), (5, 6))) {
    test(s"$name matches RefNucleus when r ids do not fit one 64-bit key: ($r,$s)") {
      val got = run(TestGraphs.plantedK7Wide, r, s).coreMap.map { case (vs, k) =>
        vs.map(_ / TestGraphs.WideFactor) -> k
      }
      val ref = RefNucleus.decompose(TestGraphs.plantedK7, r, s).coreMap
      assert(ref.nonEmpty)
      assert(got === ref)
    }
  }

  test("baseline maxCore equals ARB maxCore") {
    val g = TestGraphs.randomWithCliques(50, 0.15, Seq(7), 21)
    for ((r, s) <- rsValues) {
      val arb = ArbNucleusDecomp.decompose(g, r, s)
      assert(Nd.run(g, r, s).maxCore === arb.maxCore, s"($r,$s)")
    }
  }
}
