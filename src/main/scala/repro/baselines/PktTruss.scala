package repro.baselines

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray}
import repro.graph.CSRGraph
import repro.par.Par

/** PKT-style specialized parallel k-truss decomposition (stand-in for Kabir
  * and Madduri's PKT [37] / Che et al.'s PKT-OPT-CPU [12], which are
  * closed C++ codes; see DESIGN.md).
  *
  * (2,3)-only: edge supports are computed by sorted-adjacency triangle
  * enumeration; edges are then peeled level-by-level with flat arrays — no
  * generic clique table or bucketing. Within a level, sub-rounds process a
  * frontier of settled edges; each triangle's removal decrements the
  * supports of its still-live edges exactly once, using sub-round stamps
  * and an id tie-break to resolve simultaneous peels (two frontier edges
  * sharing a triangle).
  *
  * Reports the triangle-count core (the (2,3)-clique core number), matching
  * ARB-NUCLEUS-DECOMP's convention.
  */
object PktTruss {

  final case class TrussResult(
      /** packed (u.toLong << 32 | v), u < v, index = edge id */
      edges: Array[Long],
      core: Array[Int],
      rounds: Long,
      millis: Double
  ) {
    def coreMap: Map[Seq[Int], Long] =
      edges.indices.map { i =>
        val u = (edges(i) >>> 32).toInt
        val v = (edges(i) & 0xFFFFFFFFL).toInt
        Seq(u, v) -> core(i).toLong
      }.toMap
    def maxCore: Long = if (core.isEmpty) -1L else core.max.toLong
  }

  def run(g: CSRGraph): TrussResult = {
    val t0 = System.nanoTime()
    val n = g.n
    // --- edge ids: position of (u,v), u<v, in the "upper" CSR -------------
    val upOff = new Array[Int](n + 1)
    var u = 0
    var acc = 0
    while (u < n) {
      upOff(u) = acc
      g.foreachNeighbor(u)(v => if (v > u) acc += 1)
      u += 1
    }
    upOff(n) = acc
    val m = acc
    val upAdj = new Array[Int](m)
    u = 0
    while (u < n) {
      var w = upOff(u)
      g.foreachNeighbor(u)(v => if (v > u) { upAdj(w) = v; w += 1 })
      u += 1
    }
    val edges = new Array[Long](m)
    var e = 0
    u = 0
    while (u < n) {
      var i = upOff(u)
      while (i < upOff(u + 1)) { edges(e) = (u.toLong << 32) | upAdj(i).toLong; e += 1; i += 1 }
      u += 1
    }

    @inline def edgeId(a: Int, b: Int): Int = {
      val x = math.min(a, b)
      val y = math.max(a, b)
      var lo = upOff(x)
      var hi = upOff(x + 1) - 1
      while (lo <= hi) {
        val mid = (lo + hi) >>> 1
        val w = upAdj(mid)
        if (w == y) return mid
        else if (w < y) lo = mid + 1
        else hi = mid - 1
      }
      -1
    }

    // --- supports: enumerate each triangle once (u < v < w) ----------------
    val supp = new AtomicIntegerArray(m)
    Par.forBlocked(0, n, grain = 16) { (lo, hi) =>
      var a = lo
      while (a < hi) {
        var i = upOff(a)
        while (i < upOff(a + 1)) {
          val b = upAdj(i)
          var p = i + 1
          var q = upOff(b)
          val pHi = upOff(a + 1)
          val qHi = upOff(b + 1)
          while (p < pHi && q < qHi) {
            val x = upAdj(p)
            val y = upAdj(q)
            if (x == y) {
              supp.incrementAndGet(i) // i is the id of edge (a, b)
              supp.incrementAndGet(q) // (b, x)
              supp.incrementAndGet(p) // (a, x)
              p += 1; q += 1
            } else if (x < y) p += 1
            else q += 1
          }
          i += 1
        }
        a += 1
      }
    }

    // --- level-synchronous peel with sub-round stamps -----------------------
    val core = new Array[Int](m)
    val queued = new AtomicIntegerArray(m) // 0 = live, 1 = queued/settled
    val stamp = new AtomicIntegerArray(m)  // sub-round in which the edge settles
    var i = 0
    while (i < m) { stamp.set(i, Int.MaxValue); i += 1 }

    val frontier = new Array[Int](math.max(1, m))
    val next = new AtomicInteger(0)
    var lo = 0
    var settledTotal = 0L
    var rounds = 0L
    var sub = 0
    var k = 0

    while (settledTotal < m) {
      // seed this level's first sub-round
      val curSub = sub + 1
      Par.forRange(0, m) { eid =>
        if (queued.get(eid) == 0 && supp.get(eid) <= k) {
          if (queued.compareAndSet(eid, 0, 1)) {
            stamp.set(eid, curSub)
            frontier(next.getAndIncrement()) = eid
          }
        }
      }
      var hi = next.get()
      while (lo < hi) {
        sub += 1
        rounds += 1
        val thisSub = sub
        val nextSub = sub + 1
        Par.forBlocked(lo, hi, grain = 8) { (blo, bhi) =>
          var fi = blo
          while (fi < bhi) {
            val eid = frontier(fi)
            core(eid) = k
            val a = (edges(eid) >>> 32).toInt
            val b = (edges(eid) & 0xFFFFFFFFL).toInt
            val (small, large) = if (g.degree(a) <= g.degree(b)) (a, b) else (b, a)
            g.foreachNeighbor(small) { w =>
              if (w != large && g.hasEdge(large, w)) {
                val e1 = edgeId(a, w)
                val e2 = edgeId(b, w)
                val s1 = state(queued, stamp, e1, thisSub)
                val s2 = state(queued, stamp, e2, thisSub)
                if (s1 != Processed && s2 != Processed) {
                  if (s1 == Live && s2 == Live) {
                    decrement(supp, queued, stamp, frontier, next, e1, k, nextSub)
                    decrement(supp, queued, stamp, frontier, next, e2, k, nextSub)
                  } else if (s1 == Current && s2 == Live) {
                    if (eid < e1) decrement(supp, queued, stamp, frontier, next, e2, k, nextSub)
                  } else if (s2 == Current && s1 == Live) {
                    if (eid < e2) decrement(supp, queued, stamp, frontier, next, e1, k, nextSub)
                  }
                  // both Current: the triangle's three edges all settle now —
                  // no live edge to decrement; the smallest id is implicit.
                }
              }
            }
            fi += 1
          }
        }
        lo = hi
        hi = next.get()
      }
      settledTotal = lo
      k += 1
    }
    TrussResult(edges, core, rounds, (System.nanoTime() - t0) / 1e6)
  }

  private final val Live = 0
  private final val Current = 1
  private final val Processed = 2

  /** Edge state relative to sub-round `thisSub`: Live (not settled, or
    * settled later in this sub-round — treated as live under snapshot
    * semantics), Current (settled exactly at `thisSub`), or Processed
    * (settled strictly earlier).
    */
  @inline private def state(
      queued: AtomicIntegerArray,
      stamp: AtomicIntegerArray,
      eid: Int,
      thisSub: Int
  ): Int = {
    if (queued.get(eid) == 0) Live
    else {
      val st = stamp.get(eid)
      if (st < thisSub) Processed
      else if (st == thisSub) Current
      else Live // queued during this sub-round: snapshot says live
    }
  }

  @inline private def decrement(
      supp: AtomicIntegerArray,
      queued: AtomicIntegerArray,
      stamp: AtomicIntegerArray,
      frontier: Array[Int],
      next: AtomicInteger,
      eid: Int,
      k: Int,
      nextSub: Int
  ): Unit = {
    var done = false
    while (!done) {
      val cur = supp.get(eid)
      if (cur <= k) done = true
      else if (supp.compareAndSet(eid, cur, cur - 1)) {
        if (cur - 1 == k) {
          if (queued.compareAndSet(eid, 0, 1)) {
            stamp.set(eid, nextSub)
            frontier(next.getAndIncrement()) = eid
          }
        }
        done = true
      }
    }
  }
}
