package repro.graph

import repro.SparkSpec
import repro.cliques.{Marks, RecListCliques}
import repro.testutil.{PeelFixture, TestGraphs}

/** CSRGraph, orientations, relabeling, and the contractible graph. */
class GraphSpec extends SparkSpec {

  test("fromEdges dedupes, drops self loops, and sorts adjacency") {
    val g = CSRGraph.fromEdges(Seq((1, 0), (0, 1), (2, 2), (0, 2), (2, 0)), 3)
    assert(g.n === 3)
    assert(g.m === 2L)
    assert(g.neighbors(0).toSeq === Seq(1, 2))
    assert(g.neighbors(2).toSeq === Seq(0))
  }

  /** Asserts `g` is the simple graph on `n` vertices with edge set `expected`
    * (pairs u < v): every list strictly ascending, every edge in both lists.
    */
  private def assertGraph(g: CSRGraph, n: Int, expected: Set[(Int, Int)]): Unit = {
    assert(g.n === n)
    assert(g.m === expected.size.toLong)
    assert(g.offsets.length === n + 1 && g.adj.length === 2 * expected.size)
    val seen = (0 until n).flatMap { v =>
      val ns = g.neighbors(v)
      assert(ns.indices.drop(1).forall(i => ns(i - 1) < ns(i)), s"N($v) not strictly ascending")
      ns.map { u =>
        assert(g.hasEdge(u, v), s"edge $v-$u is not symmetric")
        (math.min(u, v), math.max(u, v))
      }
    }
    assert(seen.toSet === expected)
  }

  test("fromEdges equals a brute-force edge set on random multigraphs") {
    val rnd = new scala.util.Random(17)
    for (trial <- 0 until 40) {
      val ids = 1 + rnd.nextInt(30)
      val raw = Seq.fill(rnd.nextInt(120)) {
        val u = rnd.nextInt(ids)
        rnd.nextInt(6) match {
          case 0 => (u, u) // self loop
          case _ => (u, rnd.nextInt(ids))
        }
      }
      // reversed duplicates of some edges
      val edges = raw ++ raw.filter(_ => rnd.nextBoolean()).map(_.swap)
      val expected = edges.collect { case (u, v) if u != v => (math.min(u, v), math.max(u, v)) }.toSet
      val inferred = if (expected.isEmpty) 0 else expected.map(_._2).max + 1
      assertGraph(CSRGraph.fromEdges(edges), inferred, expected)
      val padded = inferred + rnd.nextInt(4) // n > max id + 1 adds isolated vertices
      assertGraph(CSRGraph.fromEdges(rnd.shuffle(edges), padded), padded, expected)
    }
  }

  test("fromEdges handles the empty graph and a single vertex") {
    assertGraph(CSRGraph.fromEdges(Nil), 0, Set.empty)
    assertGraph(CSRGraph.fromEdges(Seq((0, 0))), 0, Set.empty)
    assertGraph(CSRGraph.fromEdges(Nil, 1), 1, Set.empty)
    assertGraph(CSRGraph.fromEdges(Seq((0, 0)), 1), 1, Set.empty)
    assertGraph(CSRGraph.fromEdges(Nil, 3), 3, Set.empty)
  }

  test("fromPackedEdges sorts and dedups unsorted duplicated keys") {
    val pairs = Seq((3, 4), (0, 2), (1, 4), (0, 2), (2, 3), (0, 1), (3, 4), (1, 4), (0, 4))
    val keys = pairs.map { case (u, v) => CSRGraph.packEdge(u, v) }.toArray :+ -1L // past len
    val g = CSRGraph.fromPackedEdges(keys, pairs.length, 6)
    assertGraph(g, 6, pairs.toSet)
    assert(g.neighbors(4).toSeq === Seq(0, 1, 3))
    val ref = CSRGraph.fromEdges(pairs, 6)
    assert(g.offsets.toSeq === ref.offsets.toSeq && g.adj.toSeq === ref.adj.toSeq)
  }

  test("fromEdges and fromPackedEdges name out-of-range ids") {
    val neg = intercept[IllegalArgumentException](CSRGraph.fromEdges(Seq((0, 1), (2, -3))))
    assert(neg.getMessage.contains("vertex id -3 is negative"))
    val big = intercept[IllegalArgumentException](CSRGraph.fromEdges(Seq((0, 1), (7, 2)), 5))
    assert(big.getMessage.contains("vertex id 7 out of range for n = 5"))
    val packed = intercept[IllegalArgumentException](
      CSRGraph.fromPackedEdges(Array(CSRGraph.packEdge(1, 9), CSRGraph.packEdge(0, 1)), 2, 9)
    )
    assert(packed.getMessage.contains("vertex id 9 out of range for n = 9"))
    intercept[IllegalArgumentException](CSRGraph.fromPackedEdges(Array(CSRGraph.packEdge(2, 1)), 1, 3))
  }

  test("degree and hasEdge agree with adjacency") {
    val g = TestGraphs.paperFigure1
    assert(g.degree(0) === 5) // a: b,c,d,e,f
    assert(g.degree(6) === 2) // g: c,d
    assert(g.hasEdge(0, 5) && g.hasEdge(5, 0))
    assert(!g.hasEdge(5, 6))
    assert(!g.hasEdge(0, 0))
  }

  test("complete graph has all edges") {
    val g = CSRGraph.complete(6)
    assert(g.m === 15L)
    for (u <- 0 until 6; v <- 0 until 6 if u != v) assert(g.hasEdge(u, v))
  }

  test("relabel produces an isomorphic graph") {
    val g = TestGraphs.random(30, 0.2, 7)
    val perm = scala.util.Random.shuffle((0 until g.n).toList).toArray
    val h = g.relabel(perm)
    assert(h.m === g.m)
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(g.hasEdge(u, v) === h.hasEdge(perm(u), perm(v)))
  }

  test("coreness matches brute-force peel on small graphs") {
    for ((name, g) <- TestGraphs.suite) {
      val (core, order) = Orientation.coreness(g)
      assert(order.toSet === (0 until g.n).toSet, name)
      // brute force: coreness via repeated min-degree removal
      val deg = Array.tabulate(g.n)(g.degree)
      val alive = Array.fill(g.n)(true)
      val bf = new Array[Int](g.n)
      var k = 0
      for (_ <- 0 until g.n) {
        var mn = Int.MaxValue
        var who = -1
        for (v <- 0 until g.n if alive(v) && deg(v) < mn) { mn = deg(v); who = v }
        k = math.max(k, mn)
        bf(who) = k
        alive(who) = false
        g.foreachNeighbor(who)(u => if (alive(u)) deg(u) -= 1)
      }
      assert(core.toSeq === bf.toSeq, name)
    }
  }

  test("degeneracy ordering bounds out-degree by degeneracy") {
    for ((name, g) <- TestGraphs.suite if g.n > 0) {
      val d = Orientation.degeneracy(g)
      val dg = Orientation.orient(g, Orientation.Degeneracy)
      assert(dg.maxOutDegree <= math.max(1, d), s"$name: outdeg=${dg.maxOutDegree} degeneracy=$d")
    }
  }

  test("orientation is acyclic and covers every edge once") {
    val g = TestGraphs.random(30, 0.3, 3)
    val rank = TestGraphs.randomRank(g.n, 3)
    val dg = Orientation.orient(g, rank)
    var count = 0L
    for (v <- 0 until g.n) {
      var i = dg.offsets(v)
      while (i < dg.offsets(v + 1)) {
        val u = dg.adj(i)
        assert(rank(v) < rank(u), "edge against the order")
        assert(g.hasEdge(v, u))
        count += 1
        i += 1
      }
    }
    assert(count === g.m)
  }

  test("orient gives identical arrays on 1 thread and on 4") {
    val g = TestGraphs.random(3000, 0.01, 29)
    for (rank <- Seq(Orientation.ranks(g), TestGraphs.randomRank(g.n, 29))) {
      val one = repro.par.Par.withThreads(1)(Orientation.orient(g, rank))
      val four = repro.par.Par.withThreads(4)(Orientation.orient(g, rank))
      assert(java.util.Arrays.equals(one.offsets, four.offsets))
      assert(java.util.Arrays.equals(one.adj, four.adj))
      assert(one.adj.length === g.m)
    }
  }

  test("out-adjacency is sorted by id (intersection precondition)") {
    val g = TestGraphs.random(40, 0.25, 13)
    for (dg <- Seq(Orientation.orient(g), Orientation.orient(g, TestGraphs.randomRank(g.n, 13)))) {
      for (v <- 0 until g.n) {
        val out = dg.adj.slice(dg.offsets(v), dg.offsets(v + 1))
        assert(out.toSeq === out.sorted.toSeq)
      }
    }
  }

  test("relabelByRank yields identity ranks and a translation back") {
    val g = TestGraphs.random(30, 0.2, 19)
    val (rg, rdg, oldOf) = Orientation.relabelByRank(g)
    assert(rg.m === g.m)
    // identity orientation: every directed edge goes low id -> high id
    for (v <- 0 until rg.n) {
      var i = rdg.offsets(v)
      while (i < rdg.offsets(v + 1)) { assert(rdg.adj(i) > v); i += 1 }
    }
    // translation is a bijection preserving adjacency
    assert(oldOf.toSet.size === g.n)
    for (u <- 0 until rg.n; v <- 0 until rg.n)
      assert(rg.hasEdge(u, v) === g.hasEdge(oldOf(u), oldOf(v)))
  }

  test("scanOut computes sorted intersections") {
    val g = TestGraphs.complete(8)
    val dg = Orientation.orient(g)
    val cand = Array(3, 4, 5, 6, 7)
    val out = new Array[Int](8)
    val marks = Marks.acquire(g.n)
    val tag = marks.fresh(1)
    RecListCliques.stampAll(marks.stamp, cand, 0, 5, tag)
    val len = RecListCliques.scanOut(dg, marks.stamp, 2, tag, out)
    Marks.release(marks)
    // out-neighbors of rank-oriented vertex 2 intersected with cand
    val expected = cand.filter(u => dg.adj.slice(dg.offsets(2), dg.offsets(3)).contains(u))
    assert(out.take(len).toSeq === expected.toSeq)
  }

  test("PeelableGraph mirrors the base graph until contraction") {
    val g = TestGraphs.paperFigure1
    val pg = new PeelFixture(g).pg
    for (v <- 0 until g.n) {
      assert(TestGraphs.liveNeighbors(pg, v) === g.neighbors(v).toSeq)
      assert(TestGraphs.liveNeighbors(g, v) === g.neighbors(v).toSeq)
    }
  }

  test("PeelableGraph contracts only after the 2n threshold and filters peeled edges") {
    // n=12, m=66; threshold = 24 peeled edges since the last contraction
    val g = CSRGraph.complete(12)
    val fx = new PeelFixture(g)
    val pg = fx.pg
    val peeled = scala.collection.mutable.Set[(Int, Int)]()
    def isPeeled(a: Int, b: Int): Boolean = peeled.contains((math.min(a, b), math.max(a, b)))
    def peelBatch(pairs: Seq[(Int, Int)]): Boolean = {
      pairs.foreach { case (u, v) => peeled += ((math.min(u, v), math.max(u, v))) }
      fx.peel(pairs)
    }
    def assertExactlyUnpeeled(): Unit = {
      for (v <- 0 until g.n)
        assert(TestGraphs.liveNeighbors(pg, v) === g.neighbors(v).toSeq.filterNot(isPeeled(v, _)), s"v=$v")
      assert(fx.slotsMatch(), "a compacted entry lost its slot")
    }
    val all = (for (u <- 0 until 12; v <- u + 1 until 12) yield (u, v)).toSeq
    assert(!peelBatch(all.take(10)))  // 10 < 24: no contraction
    assert(pg.contractions === 0)
    for (v <- 0 until g.n) assert(TestGraphs.liveNeighbors(pg, v) === g.neighbors(v).toSeq)
    assert(peelBatch(all.slice(10, 35))) // 35 >= 24: contraction fires
    assert(pg.contractions === 1)
    // every vertex lost >= 11/4 of its 11 neighbors, so every list is
    // filtered down to exactly its unpeeled neighbors, still sorted
    assertExactlyUnpeeled()
    assert(TestGraphs.liveNeighbors(pg, 0).isEmpty && TestGraphs.liveNeighbors(pg, 11) === (3 to 10))
    // 25 more: a second contraction over the compacted lists; only the K4
    // on 8..11 stays, and every vertex of it lost >= 1/4 of its live list
    assert(peelBatch(all.slice(35, 60)))
    assert(pg.contractions === 2)
    assertExactlyUnpeeled()
    assert(TestGraphs.liveNeighbors(pg, 11) === Seq(8, 9, 10))
  }

  test("PeelableGraph rejects a peeled edge that is not live, naming it") {
    // K5 minus (0, 1): n = 5, m = 9, threshold 10. Noting the 9 edges and
    // the absent (0, 1) makes vertex 0 drop 3 entries with 4 noted lost.
    val k5 = for (u <- 0 until 5; v <- u + 1 until 5) yield (u, v)
    val absent = new PeelFixture(CSRGraph.fromEdges(k5.filterNot(_ == ((0, 1))), 5))
    absent.peel(k5.filterNot(_ == ((0, 1))))
    val e1 = intercept[IllegalStateException](absent.note(Seq((0, 1))))
    assert(e1.getMessage.contains("vertex 0 dropped 3 peeled entries, but 4 of its edges were noted peeled"))
    // K5: noting (1, 2) a second time makes vertex 1 drop 4 with 5 noted
    val twice = new PeelFixture(CSRGraph.fromEdges(k5, 5))
    twice.peel(k5.take(9))
    val e2 = intercept[IllegalStateException](twice.peel(Seq(k5(9), (2, 1))))
    assert(e2.getMessage.contains("vertex 1 dropped 4 peeled entries, but 5 of its edges were noted peeled"))
  }

  for (relabel <- Seq(false, true)) {
    test(s"PeelableGraph's slot map is the table's slot at every CSR position, and after each contraction: relabel=$relabel") {
      val base = TestGraphs.randomWithCliques(120, 0.08, Seq(12, 9), 29)
      val g = if (relabel) Orientation.relabelByRank(base)._1 else base
      val fx = new PeelFixture(g)
      for (v <- 0 until g.n; j <- g.offsets(v) until g.offsets(v + 1))
        assert(fx.pg.slots(j) === fx.slotOf(v, g.adj(j)), s"position $j of vertex $v")
      // rounds of more than 2n edges each: every round but the last contracts
      val edges = for (u <- 0 until g.n; v <- g.neighbors(u) if u < v) yield (u, v)
      val rounds = edges.grouped(2 * g.n + 7).toSeq
      assert(rounds.size >= 3)
      for ((batch, i) <- rounds.zipWithIndex) {
        fx.peel(batch)
        assert(fx.slotsMatch(), s"after round ${i + 1}")
      }
      assert(fx.pg.contractions >= rounds.size - 1)
    }
  }
}
