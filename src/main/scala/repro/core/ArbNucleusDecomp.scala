package repro.core

import java.util.concurrent.atomic.LongAdder
import repro.cliques.{Intersect, Marks, RecListCliques}
import repro.graph.{Adjacency, CSRGraph, DirectedGraph, Orientation, PeelableGraph, TriangleRows, TrussRows}
import repro.par.Par

/** Phase timings and work counters of one decomposition run. */
final case class NucleusStats(
    rounds: Int,
    numRCliques: Long,
    numSCliques: Long,
    updateScliqueDiscoveries: Long,
    contractions: Int,
    tOrientMs: Double,
    tListMs: Double,
    tBuildMs: Double,
    tCountMs: Double,
    tPeelMs: Double,
    tableMemory: TableMemory,
    /** Words of UPDATE's structures beside T, which `tableMemory` leaves
      * out: the (3,4) triangle rows ([[TriangleRows]]), the (2,3) rows
      * ([[TrussRows]]) or the r = 2 slot map ([[PeelableGraph.slots]]).
      */
    sideWords: Long = 0L
) {
  /** s-cliques touched across the whole run: initial count + re-discoveries
    * during peeling (the metric the paper compares against AND/AND-NN).
    */
  def totalScliqueDiscoveries: Long = numSCliques + updateScliqueDiscoveries
}

/** Output of ARB-NUCLEUS-DECOMP: the (r,s)-clique core number of every
  * r-clique, addressed by its slot in the clique table. If the graph was
  * relabeled, `oldOf` translates table vertex ids back to input ids.
  */
final class NucleusResult(
    val r: Int,
    val s: Int,
    val table: CliqueTable,
    val core: Array[Long],
    val oldOf: Array[Int],
    val stats: NucleusStats
) {
  def maxCore: Long = {
    var mx = -1L
    table.foreachOccupied { slot => if (core(slot) > mx) mx = core(slot) }
    mx
  }

  /** Materializes clique (original vertex ids, sorted) → core number. */
  def coreMap: Map[Seq[Int], Long] = {
    val out = Map.newBuilder[Seq[Int], Long]
    val buf = new Array[Int](r)
    table.foreachOccupied { slot =>
      table.cliqueOf(slot, buf)
      val verts =
        if (oldOf == null) buf.take(r).toSeq
        else buf.take(r).map(oldOf).sorted.toSeq
      out += verts -> core(slot)
    }
    out.result()
  }
}

/** ARB-NUCLEUS-DECOMP (paper Algorithm 2): parallel (r,s) nucleus
  * decomposition by bucketed peeling of r-cliques ordered by incident
  * s-clique count, with s-clique counts maintained in a (multi-level)
  * clique hash table and updated via REC-LIST-CLIQUES completions.
  *
  * One deliberate deviation from the pseudocode: instead of atomically
  * subtracting the fraction 1/a from each surviving subset (a = number of
  * simultaneously peeled r-subsets of the s-clique), the peeled subset with
  * the minimum slot performs the full −1 decrement. Both schemes enumerate
  * the peeled subsets anyway (the paper's line 7 computes a), end-of-round
  * counts are identical, and integer atomics avoid floating-point hazards.
  * A second one: UPDATE skips a peeled r-clique whose count is 0, because
  * every s-clique it would find was already destroyed in an earlier round.
  * See DESIGN.md "Fidelity substitutions".
  */
object ArbNucleusDecomp {

  def decompose(
      g: CSRGraph,
      r: Int,
      s: Int,
      config: NucleusConfig = null
  ): NucleusResult = {
    require(r >= 1 && s > r, s"need 1 <= r < s, got r=$r s=$s")
    val cfg = if (config == null) NucleusConfig.optimal(r, s, g.n) else config

    // --- degeneracy orientation (+ optional relabeling, §5.4) --------------
    var t0 = System.nanoTime()
    val (workGraph, dg, oldOf) =
      if (cfg.relabel) Orientation.relabelByRank(g)
      else (g, Orientation.orient(g), null: Array[Int])
    val tOrient = msSince(t0)

    // --- list r-cliques, sorted lexicographically --------------------------
    // at s = r + 1 on a relabeled graph UPDATE reads per-edge rows, built
    // from each triangle's edge positions (DESIGN.md substitution 11): at
    // (3,4) triangle rows, at (2,3) truss rows
    val withRows = cfg.relabel && r == 3 && s == 4
    val withTruss = cfg.relabel && r == 2 && s == 3
    t0 = System.nanoTime()
    val (cliquesFlat, numR, triEdges) =
      if (withRows) listTriangles(dg)
      else {
        val (flat, num) = listSortedCliques(dg, r, sortNeeded = !cfg.relabel, g.n)
        (flat, num, null)
      }
    val tList = msSince(t0)

    // --- build T (§5.1–5.3), and the triangle rows ---------------------------
    t0 = System.nanoTime()
    // the truss rows replace contraction at (2,3)
    val contract = cfg.contraction && r == 2 && !withTruss
    // contraction and the rows read each r-clique's slot as its insert
    // finds it; on a relabeled graph the r = 2 list phase lists the edges in
    // DAG order, so edge c's slot is the slot of DAG position c
    val cliqueSlots = if (contract || withRows || withTruss) new Array[Int](numR) else null
    val table = CliqueTable.build(cliquesFlat, numR, r, workGraph.n, cfg.scheme, cfg.contiguous, cfg.inverse, cliqueSlots)
    val rows =
      if (withRows) TriangleRows.build(dg, cliquesFlat, triEdges, cliqueSlots, numR, table.capacity) else null
    val tBuild = msSince(t0)

    // --- count s-cliques per r-clique ---------------------------------------
    t0 = System.nanoTime()
    val truss =
      if (withTruss) {
        val (_, numTri, edges) = listTriangles(dg, withVertices = false)
        TrussRows.build(edges, numTri, cliqueSlots, table.capacity)
      } else null
    if (truss != null) addRowLengths(truss, table)
    else if (rows != null) addFourCliqueCounts(rows, cliquesFlat, cliqueSlots, numR, table)
    else
      foreachRSubsetOfScliques(dg, r, s, sortNeeded = !cfg.relabel) { sub =>
        table.addCount(table.slotOf(sub), 1L)
      }
    val occupied = table.occupiedSlots
    val sumCounts0 = new LongAdder
    Par.forBlocked(0, occupied.length) { (lo, hi) =>
      var sum = 0L
      var i = lo
      while (i < hi) { sum += table.count(occupied(i)); i += 1 }
      sumCounts0.add(sum)
    }
    val numSubsets = Util.choose(s, r)
    val numS = sumCounts0.sum() / numSubsets
    val tCount = msSince(t0)

    // --- peel ----------------------------------------------------------------
    t0 = System.nanoTime()
    val capacity = table.capacity
    val core = new Array[Long](math.max(1, capacity))
    // Int.MaxValue = alive; otherwise the round in which the slot was peeled
    val peeledRound = new Array[Int](math.max(1, capacity))
    Par.forBlocked(0, core.length) { (lo, hi) =>
      java.util.Arrays.fill(core, lo, hi, -1L)
      java.util.Arrays.fill(peeledRound, lo, hi, Int.MaxValue)
    }

    val buckets = new Bucketing(math.max(1, capacity))
    buckets.insertAll(occupied)(table.count)

    val agg = UpdateAggregator(cfg.aggregation, math.max(1, capacity))
    val peelable: PeelableGraph =
      if (contract) new PeelableGraph(workGraph, cliquesFlat, cliqueSlots, peeledRound) else null
    val peelGraph: Adjacency = if (peelable != null) peelable else workGraph

    val maxDeg = math.max(1, workGraph.maxDegree)
    val discoveries = new LongAdder

    var finished = 0L
    var round = 0
    while (finished < numR) {
      val nb = buckets.nextBucket()
      if (nb == null)
        throw new IllegalStateException(s"bucketing exhausted with ${numR - finished} of $numR r-cliques unpeeled")
      val (k, ids) = nb
      round += 1
      val thisRound = round
      val expected = new LongAdder
      Par.forBlocked(0, ids.length) { (blo, bhi) =>
        var sum = 0L
        var i = blo
        while (i < bhi) {
          val slot = ids(i)
          core(slot) = k
          peeledRound(slot) = thisRound
          sum += table.count(slot)
          i += 1
        }
        expected.add(sum)
      }
      finished += ids.length
      if (finished < numR) {
        agg.beginRound(expected.sum() * math.max(1, numSubsets - 1))
        // the representative of one s-clique found from the peeled `slot`,
        // with the slots of its C(s,r) r-subsets in `subsetSlots`: nothing if
        // one was peeled in an earlier round (the s-clique was destroyed
        // then); else the minimum slot peeled this round is the round's sole
        // representative (substitute for the paper's 1/a fractions), and it
        // decrements each surviving subset and offers it to the aggregator
        def settle(slot: Int, subsetSlots: Array[Int]): Unit = {
          var minA = Int.MaxValue
          var j = 0
          while (j < numSubsets) {
            val sl = subsetSlots(j)
            val pr = peeledRound(sl)
            if (pr < thisRound) return
            if (pr == thisRound && sl < minA) minA = sl
            j += 1
          }
          if (minA == slot) {
            j = 0
            while (j < numSubsets) {
              val sl = subsetSlots(j)
              if (peeledRound(sl) > thisRound) {
                table.addCount(sl, -1L)
                agg.offer(sl)
              }
              j += 1
            }
          }
        }

        // ascending slots of a two-level T come grouped by first vertex, so
        // the triangle rows of a shared first vertex lie together
        if (rows != null) Par.sortInts(ids, 0, ids.length)

        Par.forBlocked(0, ids.length, grain = 4) { (blo, bhi) =>
          val sc = new UpdateScratch(r, s, maxDeg)
          val subsetSlots = sc.subsetIds
          val hits = if (rows != null) new Array[Int](3 * math.max(1, rows.maxRow)) else null
          var localDisc = 0L
          var idx = blo
          while (idx < bhi) {
            val slot = ids(idx)
            // count(slot) is the number of s-cliques through slot with no
            // r-subset peeled in an earlier round, and slots peeled this
            // round are never decremented in it. So at 0 every incident
            // s-clique would abort: skip UPDATE.
            val live = table.count(slot) != 0L
            // contraction notes every peeled edge, count 0 included; the
            // rows need no vertices
            if ((live && rows == null && truss == null) || peelable != null) {
              table.cliqueOf(slot, sc.vsR)
              if (peelable != null) peelable.lose(sc.vsR(0), sc.vsR(1))
            }
            if (live) {
              if (truss != null) {
                // triangle (u, v, x): the row holds the slots of ux and vx
                val entries = truss.entries
                var e = truss.offsets(slot)
                val eHi = truss.offsets(slot + 1)
                localDisc += eHi - e
                subsetSlots(0) = slot
                while (e < eHi) {
                  val other = entries(e)
                  subsetSlots(1) = (other >>> 32).toInt
                  subsetSlots(2) = other.toInt
                  settle(slot, subsetSlots)
                  e += 1
                }
              } else if (rows != null) {
                // 4-clique (a, b, c, x): triangles abx, acx and bcx sit
                // beside x in the rows of ab, ac and bc
                val k = rows.commonAt(slot, hits)
                subsetSlots(0) = slot
                var t = 0
                while (t < k) {
                  System.arraycopy(hits, 3 * t, subsetSlots, 1, 3)
                  settle(slot, subsetSlots)
                  t += 1
                }
                localDisc += k
              } else {
                localDisc += foreachIncidentSclique(peelGraph, dg, sc) { sBuf =>
                  // probe the subsets, stopping at one peeled earlier
                  var dead = false
                  var j = 0
                  while (!dead && j < numSubsets) {
                    val sl = table.slotOf(sc.subsets(sBuf, j))
                    subsetSlots(j) = sl
                    dead = peeledRound(sl) < thisRound
                    j += 1
                  }
                  if (!dead) settle(slot, subsetSlots)
                }
              }
            }
            idx += 1
          }
          discoveries.add(localDisc)
        }

        buckets.updateAll(agg.drain())(table.count)
        if (peelable != null) peelable.notePeeled(ids.length)
      }
    }
    val tPeel = msSince(t0)

    val stats = NucleusStats(
      rounds = round,
      numRCliques = numR,
      numSCliques = numS,
      updateScliqueDiscoveries = discoveries.sum(),
      contractions = if (peelable != null) peelable.contractions else 0,
      tOrientMs = tOrient,
      tListMs = tList,
      tBuildMs = tBuild,
      tCountMs = tCount,
      tPeelMs = tPeel,
      tableMemory = table.memory,
      sideWords =
        if (rows != null) rows.words
        else if (truss != null) truss.words
        else if (peelable != null) peelable.slots.length.toLong
        else 0L
    )
    new NucleusResult(r, s, table, core, oldOf, stats)
  }

  @inline private def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** The count phase's enumeration (Algorithm 2's initial s-clique
    * counts): lists every s-clique of `dg` in parallel and calls `f` on
    * each of its C(s,r) r-subsets, vertices sorted ascending, in a reused
    * per-thread buffer. `sortNeeded` is false when listing already yields
    * ascending vertices (a rank-relabeled graph).
    */
  private[repro] def foreachRSubsetOfScliques(dg: DirectedGraph, r: Int, s: Int, sortNeeded: Boolean)(
      f: Array[Int] => Unit
  ): Unit =
    RecListCliques.foreachClique(dg, s) { () =>
      val sBuf = new Array[Int](s)
      val subsets = new CliqueSubsets(s, r)
      clique => {
        System.arraycopy(clique, 0, sBuf, 0, s)
        if (sortNeeded) Util.insertionSort(sBuf, s)
        var j = 0
        while (j < subsets.size) { f(subsets(sBuf, j)); j += 1 }
      }
    }

  /** The (2,3) count phase on the truss rows: adds each row's length, the
    * edge's triangle count, to its slot. The counts equal those of adding 1
    * per r-subset of each s-clique of [[foreachRSubsetOfScliques]].
    */
  private[repro] def addRowLengths(truss: TrussRows, table: CliqueTable): Unit =
    Par.forBlocked(0, table.capacity, Par.BlockGrain) { (lo, hi) =>
      var slot = lo
      while (slot < hi) {
        val k = truss.length(slot)
        if (k != 0) table.addCount(slot, k.toLong)
        slot += 1
      }
    }

  /** The (3,4) count phase on the triangle rows: each 4-clique
    * (a, b, c, x), x > c, is found once, from its lexicographically first
    * triangle (a, b, c), as a vertex above c in the rows of ab, ac and bc,
    * and adds 1 to the slots of its four triangles. The counts equal those
    * of adding 1 per r-subset of each s-clique of
    * [[foreachRSubsetOfScliques]]. `triangles`, `triSlots` and `num` are
    * the rows' [[TriangleRows.build]] arguments.
    */
  private[repro] def addFourCliqueCounts(
      rows: TriangleRows,
      triangles: Array[Int],
      triSlots: Array[Int],
      num: Int,
      table: CliqueTable
  ): Unit =
    Par.forBlocked(0, num) { (lo, hi) =>
      val edges = rows.edges
      val hits = new Array[Int](3 * math.max(1, rows.maxRow))
      var ab = -1
      var i = 0 // the first entry of row ab above c
      var t = lo
      while (t < hi) {
        val e1 = edges(3 * t)
        val e2 = edges(3 * t + 1)
        val e3 = edges(3 * t + 2)
        // row ab's part above b lists the triangles (a, b, x) in the order
        // they come here, so its entries above c start right after (a, b, c)
        if (e1 == ab) i += 1
        else {
          i = if (t == lo) rows.above(e1, triangles(3 * t + 2)) else rows.upper(e1) + 1
          ab = e1
        }
        // rows ac and bc: their parts above their heads
        val k = rows.commonFrom(i, e1, rows.upper(e2), e2, rows.upper(e3), e3, hits)
        if (k > 0) {
          table.addCount(triSlots(t), k.toLong)
          var h = 0
          while (h < 3 * k) { table.addCount(hits(h), 1L); h += 1 }
        }
        t += 1
      }
    }

  /** Per-thread buffers of UPDATE's front end ([[foreachIncidentSclique]]). */
  final class UpdateScratch(val r: Int, val s: Int, maxDeg: Int) {
    /** The r-clique to expand; the caller writes it, sorted ascending. */
    val vsR = new Array[Int](r)
    val subsets = new CliqueSubsets(s, r)
    /** One entry per r-subset of an s-clique, for the caller's use. */
    val subsetIds = new Array[Int](subsets.size)
    private[ArbNucleusDecomp] val iBuf = new Array[Int](maxDeg)
    private[ArbNucleusDecomp] val cliqueBuf = new Array[Int](s)
    private[ArbNucleusDecomp] val sBuf = new Array[Int](s)
    private[ArbNucleusDecomp] val compBufs = Array.ofDim[Int](math.max(0, s - r - 2), maxDeg)
  }

  /** UPDATE's front end for the r-clique `sc.vsR` (Algorithm 2):
    * intersects its members' neighborhoods in `g`, extends the common
    * neighbors to s-cliques with REC-LIST-CLIQUES on `dg`, and calls `f` on
    * each s-clique, vertices sorted ascending, in a reused buffer. Returns
    * the number of s-cliques found (the "s-clique discoveries" work metric).
    */
  def foreachIncidentSclique(g: Adjacency, dg: DirectedGraph, sc: UpdateScratch)(f: Array[Int] => Unit): Long = {
    val r = sc.r
    val s = sc.s
    val iLen = Intersect.commonNeighbors(g, sc.vsR, r, sc.iBuf)
    if (iLen < s - r) return 0L
    System.arraycopy(sc.vsR, 0, sc.cliqueBuf, 0, r)
    var found = 0L
    RecListCliques.foreachCompletion(dg, sc.iBuf, iLen, s - r, sc.cliqueBuf, r, sc.compBufs) { cl =>
      found += 1
      System.arraycopy(cl, 0, sc.sBuf, 0, s)
      Util.insertionSort(sc.sBuf, s)
      f(sc.sBuf)
    }
    found
  }

  /** The r = 3 list phase on a rank-relabeled DAG `dg`: the triangles as
    * [[listSortedCliques]] lists them, and beside them, three per triangle
    * (a, b, c), the positions in `dg.adj` of its edges ab, ac and bc, for
    * [[TriangleRows.build]]. Returns the two arrays and the number of
    * triangles. Without `withVertices` it lists the positions alone, for
    * [[TrussRows.build]], and returns null for the triangles.
    *
    * Root a stamps out(a) with `base + i`, i the index in out(a), so one
    * stamp read gives both membership and position: a hit at position q of
    * out(b) gives triangle (a, b, adj(q)) and all three positions. Throws,
    * before concatenating the blocks' buffers, if the rows would not fit
    * ([[TriangleRows.requireFits]]).
    */
  private[repro] def listTriangles(dg: DirectedGraph, withVertices: Boolean = true): (Array[Int], Int, Array[Int]) = {
    val off = dg.offsets
    val adj = dg.adj
    val blocks = Par.blocksFor(dg.n, RecListCliques.RootGrain)
    val vertParts = if (withVertices) Array.fill(blocks)(new IntBuffer()) else null
    val edgeParts = Array.fill(blocks)(new IntBuffer())
    Par.forEachBlock(dg.n, blocks) { (blk, lo, hi) =>
      val verts = if (withVertices) vertParts(blk) else null
      val edges = edgeParts(blk)
      val marks = Marks.acquire(dg.n)
      val stamp = marks.stamp
      try {
        var a = lo
        while (a < hi) {
          val aLo = off(a)
          val d = off(a + 1) - aLo
          if (d >= 2) {
            val base = marks.fresh(d)
            var i = 0
            while (i < d) { stamp(adj(aLo + i)) = base + i; i += 1 }
            i = 0
            while (i < d) {
              val b = adj(aLo + i)
              var q = off(b)
              val qHi = off(b + 1)
              while (q < qHi) {
                // every stamp at or above base was written by this root
                val at = stamp(adj(q)) - base
                if (at >= 0) {
                  if (verts != null) {
                    val v = verts.extend(3)
                    val va = verts.unsafeArray
                    va(v) = a; va(v + 1) = b; va(v + 2) = adj(q)
                  }
                  val e = edges.extend(3)
                  val ea = edges.unsafeArray
                  ea(e) = aLo + i; ea(e + 1) = aLo + at; ea(e + 2) = q
                }
                q += 1
              }
              i += 1
            }
          }
          a += 1
        }
      } finally Marks.release(marks)
    }
    val num = edgeParts.map(_.size.toLong).sum / 3
    TriangleRows.requireFits(num)
    (if (withVertices) IntBuffer.concat(vertParts) else null, num.toInt, IntBuffer.concat(edgeParts))
  }

  /** Lists all r-cliques into a flattened, lexicographically sorted array.
    * Each block of roots ([[RecListCliques.RootGrain]]) lists into its own
    * buffer, and the buffers are concatenated in block order, so the cliques
    * come out grouped by ascending root. With a rank-relabeled graph that is
    * already sorted (each root's cliques come out lexicographically); without
    * relabeling each clique is id-sorted and the records are then sorted by
    * a stable counting sort over the `n` vertex ids on each column, last
    * column first (LSD radix sort), each pass a [[Par.scatter]].
    */
  private[repro] def listSortedCliques(
      dg: DirectedGraph,
      r: Int,
      sortNeeded: Boolean,
      n: Int
  ): (Array[Int], Int) = {
    val flat = IntBuffer.collectBlocks(dg.n, RecListCliques.RootGrain) { (lo, hi, buf) =>
      val tmp = new Array[Int](r)
      RecListCliques.foreachCliqueFromRoots(dg, r, Iterator.range(lo, hi)) { clique =>
        System.arraycopy(clique, 0, tmp, 0, r)
        if (sortNeeded) Util.insertionSort(tmp, r)
        var i = 0
        while (i < r) { buf += tmp(i); i += 1 }
      }
    }
    val total = flat.length
    val num = total / math.max(1, r)
    if (!sortNeeded) return (flat, num)

    // r stable counting passes, alternating between `flat` and a scratch array
    var src = flat
    var dst = new Array[Int](total)
    var c = r - 1
    while (c >= 0) {
      val (from, to, col) = (src, dst, c)
      var next = 0
      Par.scatter(num, n) { (lo, hi, hist) =>
        var i = lo * r + col
        while (i < hi * r) { hist(from(i)) += 1; i += r }
      } { (_, size) => val at = next; next += size; at } { (lo, hi, pos) =>
        var i = lo * r
        while (i < hi * r) {
          val v = from(i + col)
          System.arraycopy(from, i, to, pos(v) * r, r)
          pos(v) += 1
          i += r
        }
      }
      src = to; dst = from
      c -= 1
    }
    (src, num)
  }
}
