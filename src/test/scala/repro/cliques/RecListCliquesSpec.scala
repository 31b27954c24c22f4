package repro.cliques

import repro.SparkSpec
import repro.baselines.RefNucleus
import repro.graph.{Adjacency, CSRGraph, Orientation, PeelableGraph}
import repro.testutil.TestGraphs

/** REC-LIST-CLIQUES (Algorithm 1) against brute-force enumeration. */
class RecListCliquesSpec extends SparkSpec {

  for ((name, g) <- TestGraphs.suite; k <- 1 to 6) {
    test(s"countCliques matches brute force: $name k=$k") {
      val expected = RefNucleus.allCliques(g, k).length.toLong
      val dg = Orientation.orient(g, Orientation.Degeneracy)
      assert(RecListCliques.countCliques(dg, k) === expected)
    }
  }

  for ((name, g) <- TestGraphs.suite.take(4); k <- 2 to 4) {
    test(s"listing is duplicate-free and complete: $name k=$k") {
      val dg = Orientation.orient(g, Orientation.Degeneracy)
      val seen = new java.util.concurrent.ConcurrentLinkedQueue[Seq[Int]]()
      RecListCliques.foreachClique(dg, k) { () => clique =>
        seen.add(clique.toSeq.sorted)
      }
      import scala.jdk.CollectionConverters._
      val got = seen.asScala.toSeq
      val expected = RefNucleus.allCliques(g, k).map(_.toSeq).toSeq
      assert(got.size === got.distinct.size, "duplicate cliques listed")
      assert(got.sortBy(_.mkString(",")) === expected.sortBy(_.mkString(",")))
    }
  }

  test("countCliques with degree ordering matches degeneracy ordering") {
    val g = TestGraphs.random(60, 0.2, 11)
    for (k <- 2 to 5) {
      val a = RecListCliques.countCliques(Orientation.orient(g, Orientation.Degeneracy), k)
      val b = RecListCliques.countCliques(Orientation.orient(g, Orientation.Degree), k)
      assert(a === b, s"k=$k")
    }
  }

  test("countFromRoots sums to total count") {
    val g = TestGraphs.random(50, 0.25, 5)
    val dg = Orientation.orient(g)
    for (k <- 2 to 5) {
      val total = RecListCliques.countCliques(dg, k)
      val split = RecListCliques.countFromRoots(dg, k, (0 until 17).iterator) +
        RecListCliques.countFromRoots(dg, k, (17 until g.n).iterator)
      assert(split === total, s"k=$k")
    }
  }

  test("foreachCompletion lists exactly the extensions of a base clique") {
    val g = TestGraphs.paperFigure1
    val dg = Orientation.orient(g)
    // base = triangle {0,1,4} (a,b,e); its common neighbors: {2,3,5}
    val base = Array(0, 1, 4)
    val iBuf = new Array[Int](g.maxDegree)
    val iLen = Intersect.commonNeighbors(g, base, 3, iBuf)
    assert(iBuf.take(iLen).toSeq === Seq(2, 3, 5))
    // extensions to 4-cliques: {0,1,4}+{2}, +{3}, +{5} all are 4-cliques
    val clique = new Array[Int](4)
    System.arraycopy(base, 0, clique, 0, 3)
    val bufs = Array.ofDim[Int](1, g.maxDegree)
    val found = scala.collection.mutable.ArrayBuffer[Seq[Int]]()
    RecListCliques.foreachCompletion(dg, iBuf, iLen, 1, clique, 3, bufs) { cl =>
      found += cl.toSeq.sorted
    }
    assert(found.toSet === Set(Seq(0, 1, 2, 4), Seq(0, 1, 3, 4), Seq(0, 1, 4, 5)))
  }

  test("foreachCompletion need=2 finds 2-clique completions") {
    val g = TestGraphs.complete(6)
    val dg = Orientation.orient(g)
    val base = Array(0, 1)
    val iBuf = new Array[Int](g.maxDegree)
    val iLen = Intersect.commonNeighbors(g, base, 2, iBuf)
    assert(iLen === 4)
    val clique = new Array[Int](4)
    System.arraycopy(base, 0, clique, 0, 2)
    val bufs = Array.ofDim[Int](2, g.maxDegree)
    var cnt = 0
    RecListCliques.foreachCompletion(dg, iBuf, iLen, 2, clique, 2, bufs) { _ => cnt += 1 }
    assert(cnt === 6) // C(4,2) pairs, all adjacent in K6
  }

  test("commonNeighbors of a single vertex is its neighborhood") {
    val g = TestGraphs.paperFigure1
    val out = new Array[Int](g.maxDegree)
    val len = Intersect.commonNeighbors(g, Array(5), 1, out)
    assert(out.take(len).toSeq === Seq(0, 1, 4))
  }

  test("commonNeighbors excludes members of the query set") {
    val g = TestGraphs.complete(5)
    val out = new Array[Int](g.maxDegree)
    val len = Intersect.commonNeighbors(g, Array(0, 1), 2, out)
    assert(out.take(len).toSeq === Seq(2, 3, 4))
  }

  /** Two hubs adjacent to everything plus G(n, 0.03) among the rest: a
    * leaf's list is over 16 times shorter than a hub's, so queries mixing
    * them gallop and queries among leaves merge.
    */
  private def twoHubGraph(n: Int, seed: Long): CSRGraph = {
    val rnd = new scala.util.Random(seed)
    val hubs = for (h <- 0 to 1; v <- 0 until n if v != h) yield (h, v)
    val rest = for (u <- 2 until n; v <- u + 1 until n if rnd.nextDouble() < 0.03) yield (u, v)
    CSRGraph.fromEdges(hubs ++ rest, n)
  }

  /** Queries of 1–4 distinct vertices, drawn around a random vertex so most
    * share neighbors, plus one hub in every third query.
    */
  private def queries(g: Adjacency, count: Int, seed: Long): Seq[Array[Int]] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(count) {
      val len = 1 + rnd.nextInt(4)
      val v = 2 + rnd.nextInt(g.n - 2)
      val pool = rnd.shuffle((TestGraphs.liveNeighbors(g, v) :+ v).distinct)
      val base = if (rnd.nextInt(3) == 0) rnd.nextInt(2) +: pool.filter(_ > 1) else pool
      base.distinct.take(len).toArray
    }.filter(_.nonEmpty)
  }

  /** Checks every query against a brute-force set intersection and returns
    * (queries whose first intersect step merges, ... that gallop).
    */
  private def checkAgainstBruteForce(g: Adjacency, qs: Seq[Array[Int]]): (Int, Int) = {
    val out = new Array[Int](g.n)
    var merges = 0
    var gallops = 0
    for (vs <- qs) {
      val expected = vs.map(TestGraphs.liveNeighbors(g, _).toSet).reduce(_ intersect _).toSeq.sorted
      val k = Intersect.commonNeighbors(g, vs, vs.length, out)
      assert(out.take(k).toSeq === expected, s"query ${vs.mkString(",")}")
      if (vs.length >= 2) {
        val d = vs.map(g.degree).sorted
        if (d(0).toLong * 16 >= d(1)) merges += 1 else gallops += 1
      }
    }
    (merges, gallops)
  }

  test("commonNeighbors matches brute force on a skewed-degree CSRGraph, both branches") {
    val g = twoHubGraph(300, 17)
    val (merges, gallops) = checkAgainstBruteForce(g, queries(g, 600, 3))
    assert(merges > 0 && gallops > 0, s"merges=$merges gallops=$gallops")
  }

  test("commonNeighbors matches brute force on a contracted PeelableGraph, both branches") {
    val g = twoHubGraph(300, 23)
    val pg = new PeelableGraph(g)
    // peel every third edge: >= 2n peeled edges, so a contraction runs
    val edges = for (u <- 0 until g.n; v <- g.neighbors(u) if u < v) yield (u, v)
    val peeled = edges.zipWithIndex.collect { case (e, i) if i % 3 == 0 => e }.toSet
    val flat = peeled.toArray.flatMap { case (u, v) => Array(u, v) }
    assert(pg.notePeeled(flat, peeled.size))
    assert((0 until g.n).exists(v => pg.degree(v) < g.degree(v)))
    val (merges, gallops) = checkAgainstBruteForce(pg, queries(pg, 600, 5))
    assert(merges > 0 && gallops > 0, s"merges=$merges gallops=$gallops")
  }

  test("intersect: empty inputs, disjoint lists, offsets, and out aliasing a") {
    val out = new Array[Int](16)
    val evens = Array(0, 2, 4, 6, 8)
    assert(Intersect.intersect(Array.empty[Int], 0, 0, evens, 0, 5, out) === 0)
    assert(Intersect.intersect(evens, 0, 5, Array.empty[Int], 0, 0, out) === 0)
    assert(Intersect.intersect(evens, 0, 5, Array(1, 3, 5, 7, 9), 0, 5, out) === 0)
    assert(Intersect.intersect(Array(1), 0, 1, (2 until 100).toArray, 0, 98, out) === 0) // gallops past the end
    // sub-ranges: evens(1 until 4) = {2,4,6} against {4,5,6,7} inside a wider array
    assert(Intersect.intersect(evens, 1, 3, Array(9, 9, 4, 5, 6, 7), 2, 4, out) === 2)
    assert(out.take(2).toSeq === Seq(4, 6))
    // in-place filtering, merging and galloping
    val a = Array(3, 5, 7, 11, 13)
    assert(Intersect.intersect(a, 0, 5, Array(1, 3, 4, 7, 13, 20), 0, 6, a) === 3)
    assert(a.take(3).toSeq === Seq(3, 7, 13))
    val c = Array(0, 250, 999, 1000)
    assert(Intersect.intersect(c, 0, 4, (0 until 1000).toArray, 0, 1000, c) === 3)
    assert(c.take(3).toSeq === Seq(0, 250, 999))
  }

  test("intersect matches brute force across length ratios") {
    val rnd = new scala.util.Random(29)
    def sortedSample(size: Int, universe: Int): Array[Int] =
      rnd.shuffle((0 until universe).toVector).take(size).sorted.toArray
    for (aLen <- Seq(0, 1, 3, 10); bLen <- Seq(0, 1, 10, 40, 161, 1000)) {
      val universe = 2 * math.max(4, bLen) // a and b share about half of a
      val a = sortedSample(aLen, universe)
      val b = sortedSample(bLen, universe)
      val expected = a.toSet.intersect(b.toSet).toSeq.sorted
      val pad = Array(-5, -4)
      val out = new Array[Int](aLen)
      val k = Intersect.intersect(pad ++ a, 2, aLen, pad ++ b, 2, bLen, out)
      assert(out.take(k).toSeq === expected, s"aLen=$aLen bLen=$bLen")
    }
  }

  test("empty graph and k larger than graph") {
    val dg = Orientation.orient(TestGraphs.empty)
    assert(RecListCliques.countCliques(dg, 3) === 0L)
    val dg2 = Orientation.orient(TestGraphs.singleEdge)
    assert(RecListCliques.countCliques(dg2, 2) === 1L)
    assert(RecListCliques.countCliques(dg2, 3) === 0L)
  }
}
