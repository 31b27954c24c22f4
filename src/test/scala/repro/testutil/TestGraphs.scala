package repro.testutil

import repro.graph.{Adjacency, CSRGraph}
import scala.util.Random

/** Deterministic small graphs for correctness tests. */
object TestGraphs {

  /** The paper's running example (Fig. 1): K5 on {a..e}=0..4, f=5 adjacent
    * to a,b,e, g=6 adjacent to c,d. 14 triangles; for (3,4): cdg has core 0,
    * abf/aef/bef have core 1, all triangles within K5 have core 2.
    */
  def paperFigure1: CSRGraph = {
    val k5 = for (u <- 0 to 4; v <- u + 1 to 4) yield (u, v)
    val f = Seq((0, 5), (1, 5), (4, 5))
    val g = Seq((2, 6), (3, 6))
    CSRGraph.fromEdges(k5 ++ f ++ g, 7)
  }

  /** The live neighbors of `v`: the slice of [[Adjacency.adj]] the
    * intersection kernel reads.
    */
  def liveNeighbors(g: Adjacency, v: Int): Seq[Int] =
    g.adj.slice(g.offsets(v), g.offsets(v) + g.degree(v)).toSeq

  /** Erdős–Rényi G(n, p), deterministic in seed. */
  def random(n: Int, p: Double, seed: Long): CSRGraph = {
    val rnd = new Random(seed)
    val edges = for {
      u <- 0 until n
      v <- u + 1 until n
      if rnd.nextDouble() < p
    } yield (u, v)
    CSRGraph.fromEdges(edges, n)
  }

  /** Random graph plus planted cliques (interesting nuclei guaranteed). */
  def randomWithCliques(n: Int, p: Double, cliqueSizes: Seq[Int], seed: Long): CSRGraph = {
    val rnd = new Random(seed)
    val base = for {
      u <- 0 until n
      v <- u + 1 until n
      if rnd.nextDouble() < p
    } yield (u, v)
    var at = 0
    val planted = cliqueSizes.flatMap { sz =>
      val lo = at % math.max(1, n - sz)
      at += sz / 2 + 1
      for (i <- 0 until sz; j <- i + 1 until sz) yield (lo + i, lo + j)
    }
    CSRGraph.fromEdges(base ++ planted, n)
  }

  def path(n: Int): CSRGraph = CSRGraph.fromEdges((0 until n - 1).map(i => (i, i + 1)), n)

  def star(n: Int): CSRGraph = CSRGraph.fromEdges((1 until n).map(i => (0, i)), n)

  def cycle(n: Int): CSRGraph =
    CSRGraph.fromEdges((0 until n).map(i => (i, (i + 1) % n)), n)

  def complete(n: Int): CSRGraph = CSRGraph.complete(n)

  /** Two K6s sharing one vertex plus a pendant path. */
  def barbells: CSRGraph = {
    val a = for (u <- 0 to 5; v <- u + 1 to 5) yield (u, v)
    val b = for (u <- 5 to 10; v <- u + 1 to 10) yield (u, v)
    val tail = Seq((10, 11), (11, 12))
    CSRGraph.fromEdges(a ++ b ++ tail, 13)
  }

  /** A K5 on 0..4 with `pendants` small shapes hung off it, each picked by
    * `seed`: a triangle on a K5 edge, a triangle on a K5 vertex, a diamond
    * (two triangles sharing an edge) on a K5 vertex, or a K5 minus an edge
    * (two K4s sharing a triangle) on a K5 vertex. The shared edge of a
    * diamond and the shared triangle of a K5 minus an edge lose all their
    * s-cliques in the round before they are peeled, at (2,3) and at (2,4)
    * and (3,4) respectively.
    */
  def plantedK5WithPendants(pendants: Int, seed: Long): CSRGraph = {
    val rnd = new Random(seed)
    val k5 = for (u <- 0 to 4; v <- u + 1 to 4) yield (u, v)
    var next = 5
    def fresh(): Int = { next += 1; next - 1 }
    val hung = (0 until pendants).flatMap { _ =>
      val a = rnd.nextInt(5)
      rnd.nextInt(4) match {
        case 0 =>
          val w = fresh()
          Seq((a, w), ((a + 1 + rnd.nextInt(4)) % 5, w))
        case 1 =>
          val (w, x) = (fresh(), fresh())
          Seq((a, w), (a, x), (w, x))
        case 2 =>
          val (w, x, y) = (fresh(), fresh(), fresh())
          Seq((a, w), (a, x), (w, x), (w, y), (x, y))
        case _ =>
          val (w, x, y, z) = (fresh(), fresh(), fresh(), fresh())
          val tri = Seq(a, w, x)
          Seq((a, w), (a, x), (w, x)) ++ tri.map((_, y)) ++ tri.map((_, z))
      }
    }
    CSRGraph.fromEdges(k5 ++ hung, next)
  }

  def empty: CSRGraph = CSRGraph.fromEdges(Nil, 0)

  def singleEdge: CSRGraph = CSRGraph.fromEdges(Seq((0, 1)), 2)

  /** The suite used by exhaustive cross-checks: name → graph. */
  def suite: Seq[(String, CSRGraph)] = Seq(
    "fig1" -> paperFigure1,
    "k8" -> complete(8),
    "barbells" -> barbells,
    "path10" -> path(10),
    "star8" -> star(8),
    "cycle9" -> cycle(9),
    "er40" -> random(40, 0.25, 1),
    "er30dense" -> random(30, 0.4, 2),
    "planted" -> randomWithCliques(50, 0.1, Seq(7, 6, 5), 3)
  )
}
