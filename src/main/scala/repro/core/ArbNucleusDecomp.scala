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

  /** Histogram core value → number of r-cliques (cheap result fingerprint). */
  def coreHistogram: Map[Long, Long] = {
    val m = scala.collection.mutable.Map.empty[Long, Long]
    table.foreachOccupied { slot => m.updateWith(core(slot)) { c => Some(c.getOrElse(0L) + 1) } }
    m.toMap
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
    val table = CliqueTable.build(cliquesFlat, numR, r, workGraph.n, cfg.scheme, cfg.contiguous, cfg.inverse)
    val tBuild = msSince(t0)

    // --- count s-cliques per r-clique ---------------------------------------
    t0 = System.nanoTime()
    foreachRSubsetOfScliques(dg, r, s, sortNeeded = !cfg.relabel) { sub =>
      table.addCount(table.slotOf(sub), 1L)
    }
    var sumCounts0 = 0L
    table.foreachOccupied { slot => sumCounts0 += table.count(slot) }
    val numSubsets = Util.choose(s, r)
    val numS = sumCounts0 / numSubsets
    val tCount = msSince(t0)

    // --- peel ----------------------------------------------------------------
    t0 = System.nanoTime()
    val capacity = table.capacity
    val core = new Array[Long](math.max(1, capacity))
    java.util.Arrays.fill(core, -1L)
    // Int.MaxValue = alive; otherwise the round in which the slot was peeled
    val peeledRound = new Array[Int](math.max(1, capacity))
    java.util.Arrays.fill(peeledRound, Int.MaxValue)

    val buckets = new Bucketing(math.max(1, capacity))
    table.foreachOccupied { slot => buckets.insert(slot, table.count(slot)) }

    val agg = UpdateAggregator(cfg.aggregation, math.max(1, capacity))
    val peelable: PeelableGraph =
      if (cfg.contraction && r == 2) new PeelableGraph(workGraph) else null
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

        Par.forBlocked(0, ids.length, grain = 4) { (blo, bhi) =>
          val sc = new UpdateScratch(r, s, maxDeg)
          val subsetSlots = sc.subsetIds
          var localDisc = 0L
          var idx = blo
          while (idx < bhi) {
            val slot = ids(idx)
            // count(slot) is the number of s-cliques through slot with no
            // r-subset peeled in an earlier round, and slots peeled this
            // round are never decremented in it. So at 0 every incident
            // s-clique would abort: skip UPDATE.
            if (table.count(slot) != 0L) {
              table.cliqueOf(slot, sc.vsR)
              localDisc += foreachIncidentSclique(peelGraph, dg, sc) { sBuf =>
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
          discoveries.add(localDisc)
        }

        val updated = agg.drain()
        var u = 0
        while (u < updated.length) {
          buckets.update(updated(u), table.count(updated(u)))
          u += 1
        }

        if (peelable != null) {
          val pairs = new Array[Int](2 * ids.length)
          Par.forBlocked(0, ids.length) { (blo, bhi) =>
            val vsPair = new Array[Int](2)
            var i = blo
            while (i < bhi) {
              table.cliqueOf(ids(i), vsPair)
              pairs(2 * i) = vsPair(0)
              pairs(2 * i + 1) = vsPair(1)
              i += 1
            }
          }
          peelable.notePeeled(pairs, ids.length)
        }
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

  /** Lists all r-cliques into a flattened, lexicographically sorted array.
    * With a rank-relabeled graph the enumeration order is already sorted
    * (each block of roots emits lexicographically, blocks cover ascending
    * disjoint root ranges), so concatenation in root order suffices; without
    * relabeling each clique is id-sorted and the records are then sorted by
    * a stable counting sort over the `n` vertex ids on each column, last
    * column first (LSD radix sort).
    */
  private[repro] def listSortedCliques(
      dg: DirectedGraph,
      r: Int,
      sortNeeded: Boolean,
      n: Int
  ): (Array[Int], Int) = {
    val buffers = new java.util.concurrent.ConcurrentLinkedQueue[IntBuffer]()
    RecListCliques.foreachClique(dg, r) { () =>
      val buf = new IntBuffer(1024)
      buffers.add(buf)
      val tmp = new Array[Int](r)
      clique => {
        System.arraycopy(clique, 0, tmp, 0, r)
        if (sortNeeded) Util.insertionSort(tmp, r)
        var i = 0
        while (i < r) { buf += tmp(i); i += 1 }
      }
    }
    import scala.jdk.CollectionConverters._
    val nonEmpty = buffers.asScala.filter(_.size > 0).toArray
    // order blocks by their first clique's first vertex (disjoint root ranges)
    val ordered = nonEmpty.sortBy(b => b(0))
    val totalSlots = ordered.iterator.map(_.size.toLong).sum
    require(
      totalSlots <= Int.MaxValue,
      s"${totalSlots / r} r-cliques × r = $r: $totalSlots slots exceed an Int array"
    )
    val total = totalSlots.toInt
    val flat = new Array[Int](total)
    var off = 0
    ordered.foreach { b =>
      System.arraycopy(b.unsafeArray, 0, flat, off, b.size)
      off += b.size
    }
    val num = total / math.max(1, r)
    if (!sortNeeded) return (flat, num)

    // r stable counting passes, alternating between `flat` and a scratch array
    var src = flat
    var dst = new Array[Int](total)
    var c = r - 1
    while (c >= 0) {
      val bucketStart = new Array[Int](n + 1)
      var i = c
      while (i < total) { bucketStart(src(i) + 1) += 1; i += r }
      var v = 0
      while (v < n) { bucketStart(v + 1) += bucketStart(v); v += 1 }
      i = 0
      while (i < total) {
        val v = src(i + c)
        System.arraycopy(src, i, dst, bucketStart(v) * r, r)
        bucketStart(v) += 1
        i += r
      }
      val t = src; src = dst; dst = t
      c -= 1
    }
    (src, num)
  }
}
