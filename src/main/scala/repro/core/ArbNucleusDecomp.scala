package repro.core

import java.util.concurrent.atomic.LongAdder
import repro.cliques.{Intersect, RecListCliques}
import repro.graph.{Adjacency, CSRGraph, DirectedGraph, Orientation, PeelableGraph}
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
    tableMemory: TableMemory
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
    t0 = System.nanoTime()
    val (cliquesFlat, numR) = listSortedCliques(dg, r, sortNeeded = !cfg.relabel, g.n)
    val tList = msSince(t0)

    // --- build T (§5.1–5.3) -------------------------------------------------
    t0 = System.nanoTime()
    val contract = cfg.contraction && r == 2
    // contraction reads each edge's slot by its CSR position
    val edgeSlots = if (contract) new Array[Int](numR) else null
    val table = CliqueTable.build(cliquesFlat, numR, r, workGraph.n, cfg.scheme, cfg.contiguous, cfg.inverse, edgeSlots)
    val tBuild = msSince(t0)

    // --- count s-cliques per r-clique ---------------------------------------
    t0 = System.nanoTime()
    if (r == 2 && s == 3) addTriangleCounts(dg, table)
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
      if (contract) new PeelableGraph(workGraph, cliquesFlat, edgeSlots, peeledRound) else null
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
        // at r = 2, ascending slots of a two-level T come grouped by first
        // vertex, so a block stamps each shared endpoint's list once
        if (r == 2) Par.sortInts(ids, 0, ids.length)

        Par.forBlocked(0, ids.length, grain = 4) { (blo, bhi) =>
          val sc = new UpdateScratch(r, s, maxDeg)
          val subsetSlots = sc.subsetIds
          val shared = if (r == 2) new Intersect.SharedEndpoint(peelGraph) else null
          var localDisc = 0L
          var idx = blo
          try {
            while (idx < bhi) {
              val slot = ids(idx)
              // count(slot) is the number of s-cliques through slot with no
              // r-subset peeled in an earlier round, and slots peeled this
              // round are never decremented in it. So at 0 every incident
              // s-clique would abort: skip UPDATE.
              val live = table.count(slot) != 0L
              // contraction notes every peeled edge, count 0 included
              if (live || peelable != null) {
                table.cliqueOf(slot, sc.vsR)
                if (peelable != null) peelable.lose(sc.vsR(0), sc.vsR(1))
              }
              if (live) {
                val iLen =
                  if (shared != null) shared.commonNeighbors(sc.vsR(0), sc.vsR(1), sc.iBuf)
                  else Intersect.commonNeighbors(peelGraph, sc.vsR, r, sc.iBuf)
                localDisc += completeIncident(dg, sc, iLen) { sBuf =>
                  // classify the C(s,r) subsets of this s-clique
                  var abort = false
                  var minA = Int.MaxValue
                  var j = 0
                  while (!abort && j < numSubsets) {
                    val sl = table.slotOf(sc.subsets(sBuf, j))
                    subsetSlots(j) = sl
                    val pr = peeledRound(sl)
                    if (pr < thisRound) abort = true // s-clique destroyed earlier
                    else if (pr == thisRound && sl < minA) minA = sl
                    j += 1
                  }
                  // the minimum peeled subset is the round's sole representative
                  // for this s-clique (substitute for the paper's 1/a fractions)
                  if (!abort && minA == slot) {
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
              }
              idx += 1
            }
          } finally if (shared != null) shared.release()
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
      tableMemory = table.memory
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

  /** The (2,3) count phase: adds each edge's triangle count, from
    * [[RecListCliques.trianglesPerEdge]], to its slot, with one `slotOf`
    * per DAG edge whose count is not 0. The counts equal those of adding 1
    * per r-subset of each s-clique of [[foreachRSubsetOfScliques]].
    */
  private[repro] def addTriangleCounts(dg: DirectedGraph, table: CliqueTable): Unit = {
    val counts = RecListCliques.trianglesPerEdge(dg)
    val off = dg.offsets
    Par.forBlocked(0, dg.n) { (lo, hi) =>
      val pair = new Array[Int](2)
      var v = lo
      while (v < hi) {
        var p = off(v)
        while (p < off(v + 1)) {
          val c = counts.get(p)
          if (c != 0) {
            val w = dg.adj(p)
            pair(0) = math.min(v, w)
            pair(1) = math.max(v, w)
            table.addCount(table.slotOf(pair), c.toLong)
          }
          p += 1
        }
        v += 1
      }
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
  def foreachIncidentSclique(g: Adjacency, dg: DirectedGraph, sc: UpdateScratch)(f: Array[Int] => Unit): Long =
    completeIncident(dg, sc, Intersect.commonNeighbors(g, sc.vsR, sc.r, sc.iBuf))(f)

  /** [[foreachIncidentSclique]] once the common neighbours of `sc.vsR` are
    * in `sc.iBuf(0 until iLen)`.
    */
  private def completeIncident(dg: DirectedGraph, sc: UpdateScratch, iLen: Int)(f: Array[Int] => Unit): Long = {
    val r = sc.r
    val s = sc.s
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
