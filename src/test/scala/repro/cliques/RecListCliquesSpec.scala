package repro.cliques

import java.util.concurrent.atomic.AtomicLong
import repro.SparkSpec
import repro.baselines.RefNucleus
import repro.core.{ArbNucleusDecomp, CliqueTable}
import repro.graph.{Adjacency, CSRGraph, DirectedGraph, Orientation}
import repro.par.Par
import repro.sparkgen.GraphGen
import repro.sparkops.EdgeOps
import repro.testutil.{PeelFixture, TestGraphs}

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

  test("countCliques with a random rank order matches degeneracy order") {
    val g = TestGraphs.random(60, 0.2, 11)
    val random = Orientation.orient(g, TestGraphs.randomRank(g.n, 11))
    for (k <- 2 to 5) {
      val a = RecListCliques.countCliques(Orientation.orient(g), k)
      val b = RecListCliques.countCliques(random, k)
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
    * them gallop and queries among leaves mark and scan.
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

  /** Brute-force common neighbours of `vs` over the live lists of `g`. */
  private def bruteCommon(g: Adjacency, vs: Array[Int]): Seq[Int] =
    vs.map(TestGraphs.liveNeighbors(g, _).toSet).reduce(_ intersect _).toSeq.sorted

  /** Checks every query against a brute-force set intersection and returns
    * (queries whose first intersect step marks and scans, ... that gallop).
    */
  private def checkAgainstBruteForce(g: Adjacency, qs: Seq[Array[Int]]): (Int, Int) = {
    val out = new Array[Int](g.n)
    var marks = 0
    var gallops = 0
    for (vs <- qs) {
      val k = Intersect.commonNeighbors(g, vs, vs.length, out)
      assert(out.take(k).toSeq === bruteCommon(g, vs), s"query ${vs.mkString(",")}")
      if (vs.length >= 2) {
        val d = vs.map(g.degree).sorted
        if (d(0).toLong * 16 >= d(1)) marks += 1 else gallops += 1
      }
    }
    (marks, gallops)
  }

  test("commonNeighbors matches brute force on a skewed-degree CSRGraph, both branches") {
    val g = twoHubGraph(300, 17)
    val (marks, gallops) = checkAgainstBruteForce(g, queries(g, 600, 3))
    assert(marks > 0 && gallops > 0, s"marks=$marks gallops=$gallops")
  }

  test("commonNeighbors matches brute force on a contracted PeelableGraph, both branches") {
    val g = twoHubGraph(300, 23)
    val fx = new PeelFixture(g)
    val pg = fx.pg
    // peel every third edge: >= 2n peeled edges, so a contraction runs
    val edges = for (u <- 0 until g.n; v <- g.neighbors(u) if u < v) yield (u, v)
    val peeled = edges.zipWithIndex.collect { case (e, i) if i % 3 == 0 => e }
    assert(fx.peel(peeled))
    assert((0 until g.n).exists(v => pg.degree(v) < g.degree(v)))
    val (marks, gallops) = checkAgainstBruteForce(pg, queries(pg, 600, 5))
    assert(marks > 0 && gallops > 0, s"marks=$marks gallops=$gallops")
  }

  /** twoHubGraph with ids reversed, so the hubs are the two highest ids. */
  private def highHubGraph(n: Int, seed: Long): CSRGraph =
    twoHubGraph(n, seed).relabel(Array.tabulate(n)(v => n - 1 - v))

  for (threads <- Seq(1, 4)) {
    test(s"(2,3) count phase by the slots T reports in DAG order equals the probing one on a relabeled graph: $threads thread(s)") {
      val core = highHubGraph(300, 43)
      val (g, dg, _) = Orientation.relabelByRank(core)
      val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, 2, sortNeeded = false, g.n)
      assert(num === dg.adj.length)
      val slots = new Array[Int](num)
      val bySlots = CliqueTable.build(flat, num, 2, g.n, slots = slots)
      val probed = CliqueTable.build(flat, num, 2, g.n)
      for (u <- 0 until dg.n; p <- dg.offsets(u) until dg.offsets(u + 1))
        assert(slots(p) === bySlots.slotOf(Array(u, dg.adj(p))), s"DAG edge $p")
      // the (2,3) rows read the slots T reported for each triangle's edges;
      // the per-subset count phase probes T for each triangle's edges
      Par.withThreads(threads) {
        ArbNucleusDecomp.addRowLengths(ArbNucleusDecomp.scliqueRows(dg, 2, bySlots, slots), bySlots)
        ArbNucleusDecomp.addScliqueCounts(dg, 2, 3, probed, sortNeeded = false)
      }
      for (slot <- bySlots.occupiedSlots) assert(bySlots.count(slot) === probed.count(slot), s"slot $slot")
      assert(bySlots.occupiedSlots.map(bySlots.count).sum === 3 * RecListCliques.countCliques(dg, 3))
    }
  }

  /** A graph, `len` query members and a list of edges to peel. The
    * members' degrees ascend, and commonNeighbors' last step meets a list of
    * `16 · k + delta` entries with `k` candidates left, `k` = 8, 6 and 5 for
    * len 2, 3 and 4 (earlier steps mark and scan). Every list holds its own
    * filler vertices, and ids are shuffled so that fillers and common
    * neighbours interleave. With `deadPerMember` > 0 each member also gets
    * that many extra neighbours, and the edges to peel are those plus a K40
    * on fresh vertices, enough to cross the 2n contraction threshold.
    */
  private def ratioGraph(len: Int, delta: Int, deadPerMember: Int, seed: Long): (CSRGraph, Array[Int], Seq[(Int, Int)]) = {
    var next = len
    def fresh(c: Int): Seq[Int] = { val vs = next until next + c; next += c; vs }
    val a = fresh(8)
    // the list of each member: the common part it keeps, then its fillers
    val lists: Seq[Seq[Int]] = len match {
      case 2 => Seq(a, a.take(5) ++ fresh(16 * 8 + delta - 5))
      case 3 => Seq(a, a.take(6) ++ fresh(6), a.take(4) ++ fresh(16 * 6 + delta - 4))
      case 4 => Seq(a, a.take(6) ++ fresh(6), a.take(5) ++ fresh(15), a.take(3) ++ fresh(16 * 5 + delta - 3))
    }
    val live = lists.zipWithIndex.flatMap { case (ns, m) => ns.map(w => (m, w)) }
    val dead = (0 until len).flatMap(m => fresh(deadPerMember).map(w => (m, w)))
    val block = if (deadPerMember > 0) { val k = fresh(40); for (i <- k; j <- k if i < j) yield (i, j) } else Nil
    val perm = new scala.util.Random(seed).shuffle((0 until next).toVector).toArray
    def ren(e: (Int, Int)) = (perm(e._1), perm(e._2))
    val g = CSRGraph.fromEdges((live ++ dead ++ block).map(ren), next)
    (g, Array.tabulate(len)(perm), (dead ++ block).map(ren))
  }

  for (len <- 2 to 4; delta <- Seq(-1, 0, 1); contracted <- Seq(false, true)) {
    val ratio = delta match { case -1 => "just below"; case 0 => "at"; case _ => "just above" }
    val graph = if (contracted) "a contracted PeelableGraph" else "a CSRGraph"
    test(s"commonNeighbors matches brute force with its last step $ratio GallopRatio: len=$len, $graph") {
      val (g, members, peel) = ratioGraph(len, delta, if (contracted) 50 else 0, 41L + len)
      val adjacency: Adjacency =
        if (!contracted) g
        else {
          val fx = new PeelFixture(g)
          assert(fx.peel(peel))
          fx.pg
        }
      val out = new Array[Int](g.n)
      for (vs <- members.permutations) {
        val k = Intersect.commonNeighbors(adjacency, vs, len, out)
        val expected = bruteCommon(adjacency, vs)
        assert(expected.size === Seq(5, 4, 3)(len - 2))
        assert(out.take(k).toSeq === expected, s"query ${vs.mkString(",")}")
      }
      // the live degrees the plan sees: ascending, and the last one is 16k + delta
      val k = Seq(8, 6, 5)(len - 2)
      val degrees = members.toSeq.map(adjacency.degree)
      assert(degrees === degrees.sorted && degrees.last === 16 * k + delta, s"degrees $degrees")
    }
  }

  /** The sorted-merge REC-LIST-CLIQUES that listing used before marking:
    * every r-clique of `dg`, each sorted ascending, in lexicographic order,
    * flattened.
    */
  private def mergeListing(dg: DirectedGraph, r: Int): Array[Int] = {
    def outN(v: Int): Array[Int] = dg.adj.slice(dg.offsets(v), dg.offsets(v + 1))
    def merge(a: Array[Int], b: Array[Int]): Array[Int] = {
      val out = Array.newBuilder[Int]
      var i = 0
      var j = 0
      while (i < a.length && j < b.length) {
        if (a(i) == b(j)) { out += a(i); i += 1; j += 1 }
        else if (a(i) < b(j)) i += 1
        else j += 1
      }
      out.result()
    }
    val found = Array.newBuilder[Array[Int]]
    def rec(clique: List[Int], cand: Array[Int], rl: Int): Unit =
      if (rl == 0) found += clique.toArray.sorted
      else cand.foreach(u => rec(u :: clique, merge(cand, outN(u)), rl - 1))
    (0 until dg.n).foreach(v => rec(List(v), outN(v), r - 1))
    found.result().sortWith((x, y) => java.util.Arrays.compare(x, y) < 0).flatten
  }

  private lazy val rmat10: CSRGraph = EdgeOps.csrOf(spark, GraphGen.rmatEdges(spark, 10, 8, seed = 4))

  for ((name, graph) <- TestGraphs.suite.map { case (n, g) => (n, () => g) } :+ ("rmat(10,8)" -> (() => rmat10));
       relabel <- Seq(false, true)) {
    test(s"listSortedCliques is identical to a sorted-merge listing: $name relabel=$relabel, r=2..4") {
      val g = graph()
      val dg = if (relabel) Orientation.relabelByRank(g)._2 else Orientation.orient(g)
      for (r <- 2 to 4) {
        val expected = mergeListing(dg, r)
        val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = !relabel, g.n)
        assert(num * r === expected.length, s"r=$r")
        assert(java.util.Arrays.equals(flat, expected), s"r=$r")
      }
    }
  }

  for ((name, g) <- Seq("plantedK7" -> TestGraphs.plantedK7, "plantedK7Wide" -> TestGraphs.plantedK7Wide)) {
    test(s"listSortedCliques sorts r-cliques whose ids do not fit one 64-bit key: $name, r=4..5") {
      val dg = Orientation.orient(g)
      for (r <- 4 to 5) {
        val expected = mergeListing(dg, r)
        assert(expected.nonEmpty, s"r=$r")
        val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = true, g.n)
        assert(num * r === expected.length, s"r=$r")
        assert(java.util.Arrays.equals(flat, expected), s"r=$r")
      }
    }
  }

  test("listSortedCliques under 4 threads, above its sort grain, is identical to a sorted-merge listing") {
    val g = TestGraphs.random(2500, 0.04, 71)
    val dg = Orientation.orient(g)
    Par.withThreads(4) {
      for (r <- 2 to 3) {
        val expected = mergeListing(dg, r)
        assert(expected.length / r > Par.BlockGrain, s"r=$r: below the grain")
        val (flat, num) = ArbNucleusDecomp.listSortedCliques(dg, r, sortNeeded = true, g.n)
        assert(num * r === expected.length, s"r=$r")
        assert(java.util.Arrays.equals(flat, expected), s"r=$r")
      }
    }
  }

  for (threads <- Seq(1, 4)) {
    test(s"a listing consumer that re-enters commonNeighbors and countCliques matches brute force: $threads thread(s)") {
      val g = TestGraphs.random(40, 0.35, 37)
      val dg = Orientation.orient(g)
      val triangles = RefNucleus.allCliques(g, 3).length.toLong
      val listed = new AtomicLong
      val wrong = new AtomicLong
      Par.withThreads(threads) {
        RecListCliques.foreachClique(dg, 4) { () =>
          val vs = new Array[Int](2)
          val out = new Array[Int](g.n)
          clique => {
            listed.incrementAndGet()
            vs(0) = clique(0)
            vs(1) = clique(2)
            val k = Intersect.commonNeighbors(g, vs, 2, out)
            if (out.take(k).toSeq != bruteCommon(g, vs)) wrong.incrementAndGet()
            if (RecListCliques.countCliques(dg, 3) != triangles) wrong.incrementAndGet()
          }
        }
      }
      assert(listed.get === RefNucleus.allCliques(g, 4).length.toLong)
      assert(wrong.get === 0L)
    }
  }

  private val wrapGraph = TestGraphs.random(60, 0.3, 43)

  /** Clique counts for k = 3 to 5 and 300 commonNeighbors queries on
    * `wrapGraph`, each against brute force.
    */
  private def checkListingAndQueries(): Unit = {
    val g = wrapGraph
    val dg = Orientation.orient(g)
    for (k <- 3 to 5)
      assert(RecListCliques.countCliques(dg, k) === RefNucleus.allCliques(g, k).length.toLong, s"k=$k")
    checkAgainstBruteForce(g, queries(g, 300, 7))
  }

  test("listing and commonNeighbors match brute force across the stamp tag wrap-around: 1 thread") {
    // A new thread's first stamp array starts at tag 0: every vertex gets
    // its first tag, then the tags jump to the wrap. Past it they start
    // again from that first tag, so a stale stamp would read as a member.
    var failure: Throwable = null
    val t = new Thread(() =>
      try Par.withThreads(1) {
        val n = wrapGraph.n
        val m = Marks.acquire(n)
        RecListCliques.stampAll(m.stamp, Array.range(0, n), 0, n, m.fresh(1))
        Marks.release(m)
        Marks.restartTags(Int.MaxValue - 3)
        checkListingAndQueries()
      } catch { case e: Throwable => failure = e }
      finally Marks.restartTags(0)
    )
    t.start()
    t.join()
    if (failure != null) throw failure
  }

  test("listing and commonNeighbors match brute force across the stamp tag wrap-around: 4 threads") {
    try {
      Marks.restartTags(Int.MaxValue - 3) // the new pool's workers start their arrays here
      Par.withThreads(4)(checkListingAndQueries())
    } finally Marks.restartTags(0)
  }

  /** The relabeled `highHubGraph(300, 43)` and its DAG, for the
    * listTriangles wrap tests.
    */
  private lazy val triangleWrapGraph: (CSRGraph, DirectedGraph) = {
    val (g, dg, _) = Orientation.relabelByRank(highHubGraph(300, 43))
    (g, dg)
  }

  /** The tags listTriangles reserves before each root, in root order:
    * a root of out-degree d >= 2 reserves d.
    */
  private def triangleTagPrefix: Seq[Long] = {
    val dg = triangleWrapGraph._2
    (0 until dg.n).map(dg.outDegree).filter(_ >= 2).map(_.toLong).scanLeft(0L)(_ + _)
  }

  /** listTriangles against `listSortedCliques`: rebuilt from the positions
    * in `dg.adj` of its edges ab, ac and bc, each triangle (a, b, c) is the
    * one `listSortedCliques` lists at the same index, and the positions
    * agree (ab and ac in out(a), bc in out(b)).
    */
  private def checkListTriangles(): Unit = {
    val (g, dg) = triangleWrapGraph
    val (edges, num) = ArbNucleusDecomp.listTriangles(dg)
    val (expected, expectedNum) = ArbNucleusDecomp.listSortedCliques(dg, 3, sortNeeded = false, g.n)
    assert(num === expectedNum)
    assert(edges.length === 3 * num)
    // the vertex whose out-list holds each position
    val tail = new Array[Int](dg.adj.length)
    for (v <- 0 until dg.n; p <- dg.offsets(v) until dg.offsets(v + 1)) tail(p) = v
    for (t <- 0 until num) {
      val Seq(ab, ac, bc) = edges.slice(3 * t, 3 * t + 3).toSeq
      val (a, b, c) = (tail(ab), dg.adj(ab), dg.adj(bc))
      assert(Seq(a, b, c) === expected.slice(3 * t, 3 * t + 3).toSeq, s"triangle $t")
      assert(tail(ac) === a && dg.adj(ac) === c && tail(bc) === b, s"triangle $t")
    }
  }

  test("listTriangles matches listSortedCliques, edge positions included, across the stamp tag wrap-around: 1 thread") {
    // start the tags so that the first root past 200 reserved tags asks for
    // one more tag than fit below the wrap: its reservation must restart
    val prefix = triangleTagPrefix
    val headroom = prefix.find(_ > 200L).get - 1
    assert(prefix.last > 2 * headroom, s"only ${prefix.last} tags reserved")
    var failure: Throwable = null
    val t = new Thread(() =>
      try Par.withThreads(1) {
        Marks.restartTags((Int.MaxValue - headroom).toInt)
        checkListTriangles()
      } catch { case e: Throwable => failure = e }
      finally Marks.restartTags(0)
    )
    t.start()
    t.join()
    if (failure != null) throw failure
  }

  test("listTriangles matches listSortedCliques, edge positions included, across the stamp tag wrap-around: 4 threads") {
    assert(triangleTagPrefix.last > 4 * 200L)
    try {
      // the new pool's workers start their arrays 200 tags below the wrap
      Marks.restartTags(Int.MaxValue - 200)
      Par.withThreads(4)(checkListTriangles())
    } finally Marks.restartTags(0)
  }

  test("a stamp array that cannot fit the heap once per worker is rejected, naming n and the pool size") {
    val e = intercept[IllegalArgumentException](Par.withThreads(64)(Marks.acquire(Int.MaxValue)))
    assert(e.getMessage.contains(s"n = ${Int.MaxValue}") && e.getMessage.contains("64 workers"), e.getMessage)
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
