package repro.core

import java.util.concurrent.atomic.LongAdder
import repro.cliques.{Intersect, Marks, RecListCliques}
import repro.graph.{Adjacency, CSRGraph, DirectedGraph, Orientation, PeelableGraph, ScliqueRows}
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
      * out: the s-clique rows at s = r + 1 on a relabeled graph
      * ([[ScliqueRows]]: r · s words per s-clique and one per slot of T,
      * plus one) or the r = 2 slot map ([[PeelableGraph.slots]]: one word
      * per CSR entry).
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
  * counts are identical, and integer counts avoid floating-point hazards.
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

    // --- build T (§5.1–5.3) ----------------------------------------------------
    // at s = r + 1 on a relabeled graph UPDATE reads one row of s-cliques
    // per slot of T (DESIGN.md substitution 11), which replaces contraction
    // at (2,3)
    val withRows = cfg.relabel && s == r + 1
    t0 = System.nanoTime()
    val contract = cfg.contraction && r == 2 && !withRows
    // contraction and the r = 2 rows read each edge's slot as its insert
    // finds it; on a relabeled graph the r = 2 list phase lists the edges in
    // DAG order, so edge c's slot is the slot of DAG position c
    val cliqueSlots = if (contract || (withRows && r == 2)) new Array[Int](numR) else null
    val table = CliqueTable.build(cliquesFlat, numR, r, workGraph.n, cfg.scheme, cfg.contiguous, cfg.inverse, cliqueSlots)
    val tBuild = msSince(t0)

    // --- count s-cliques per r-clique ---------------------------------------
    t0 = System.nanoTime()
    val rows = if (withRows) scliqueRows(dg, r, table, cliqueSlots) else null
    if (rows != null) addRowLengths(rows, table)
    else addScliqueCounts(dg, r, s, table, sortNeeded = !cfg.relabel)
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
    val capacity = math.max(1, table.capacity)
    // Int.MaxValue = alive; otherwise the round in which the slot was peeled
    val peeledRound = new Array[Int](capacity)
    Par.forBlocked(0, capacity)((lo, hi) => java.util.Arrays.fill(peeledRound, lo, hi, Int.MaxValue))
    // k of each round; core(slot) is filled from it once the peel ends
    val roundK = Array.newBuilder[Long]

    val buckets = new Bucketing(capacity)
    buckets.insertAll(occupied)(table.count)

    // UPDATE's decrements: on the rows, logged with one part per UPDATE
    // block (no round has more blocks than one peeling every slot) and
    // applied by slot range (DESIGN.md substitution 12); elsewhere atomic,
    // with U from the aggregator
    val log = if (rows != null) new DecrementLog(table, Par.blocksFor(capacity, UpdateGrain)) else null
    val agg = if (rows == null) UpdateAggregator(cfg.aggregation, capacity) else null
    // only the hash-table aggregator sizes its round from the peeled counts
    val countSum: Int => Long =
      if (agg != null && cfg.aggregation == UpdateAggregator.HashTableKind) table.count else null
    val peelable: PeelableGraph =
      if (contract) new PeelableGraph(workGraph, cliquesFlat, cliqueSlots, peeledRound) else null
    val peelGraph: Adjacency = if (peelable != null) peelable else workGraph

    val maxDeg = math.max(1, workGraph.maxDegree)
    val discoveries = new LongAdder

    var finished = 0L
    var round = 0
    while (finished < numR) {
      val thisRound = round + 1
      // the pack marks peeledRound for the ids it extracts
      val nb = buckets.nextBucket(thisRound, peeledRound, countSum)
      if (nb == null)
        throw new IllegalStateException(s"bucketing exhausted with ${numR - finished} of $numR r-cliques unpeeled")
      val ids = nb.ids
      round = thisRound
      roundK += nb.value
      finished += ids.length
      if (finished < numR) {
        if (agg != null) agg.beginRound(nb.countSum * math.max(1, numSubsets - 1))
        // the representative of one s-clique found from the peeled `slot`,
        // with the slots of its other r-subsets (`slot` itself may be among
        // them) in `subsetSlots(from until from + len)`: nothing if one was
        // peeled in an earlier round (the s-clique was destroyed then); else
        // the minimum slot peeled this round is the round's sole
        // representative (substitute for the paper's 1/a fractions), and it
        // decrements each surviving subset: into the block's `out` log on
        // the rows, else atomically, offering the subset to the aggregator
        def settle(slot: Int, subsetSlots: Array[Int], from: Int, len: Int, out: IntBuffer): Unit = {
          val end = from + len
          var minA = slot
          var j = from
          while (j < end) {
            val sl = subsetSlots(j)
            val pr = peeledRound(sl)
            if (pr < thisRound) return
            if (pr == thisRound && sl < minA) minA = sl
            j += 1
          }
          if (minA == slot) {
            j = from
            while (j < end) {
              val sl = subsetSlots(j)
              if (peeledRound(sl) > thisRound) {
                if (out != null) out += sl
                else {
                  table.addCount(sl, -1L)
                  agg.offer(sl)
                }
              }
              j += 1
            }
          }
        }

        Par.forEachBlock(ids.length, Par.blocksFor(ids.length, UpdateGrain)) { (b, blo, bhi) =>
          // read by the intersecting UPDATE and contraction, not by the rows
          val sc = if (rows == null) new UpdateScratch(r, s, maxDeg) else null
          val out = if (log != null) log.part(b) else null
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
            if ((live && rows == null) || peelable != null) {
              table.cliqueOf(slot, sc.vsR)
              if (peelable != null) peelable.lose(sc.vsR(0), sc.vsR(1))
            }
            if (live) {
              if (rows != null) {
                // one entry per s-clique through slot: its other r-subsets
                val lo = rows.offsets(slot)
                val hi = rows.offsets(slot + 1)
                localDisc += hi - lo
                var at = r * lo
                while (at < r * hi) { settle(slot, rows.entries, at, r, out); at += r }
              } else {
                val subsetSlots = sc.subsetIds
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
                  if (!dead) settle(slot, subsetSlots, 0, numSubsets, null)
                }
              }
            }
            idx += 1
          }
          discoveries.add(localDisc)
        }

        buckets.updateAll(if (log != null) log.apply() else agg.drain())(table.count)
        if (peelable != null) peelable.notePeeled(ids.length)
      }
    }
    val kOf = roundK.result()
    val core = new Array[Long](capacity)
    Par.forBlocked(0, capacity, Par.BlockGrain) { (lo, hi) =>
      var slot = lo
      while (slot < hi) {
        val pr = peeledRound(slot)
        core(slot) = if (pr == Int.MaxValue) -1L else kOf(pr - 1)
        slot += 1
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
        else if (peelable != null) peelable.slots.length.toLong
        else 0L
    )
    new NucleusResult(r, s, table, core, oldOf, stats)
  }

  /** Peeled r-cliques per UPDATE block: small, as one r-clique's s-cliques
    * can be many.
    */
  private final val UpdateGrain = 4

  @inline private def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** The generic count phase (Algorithm 2's initial s-clique counts):
    * lists every s-clique of `dg` in parallel and adds 1 to the count in
    * `table` of each of its C(s,r) r-subsets, found by one `slotOf` each.
    * `sortNeeded` is false when listing already yields ascending vertices
    * (a rank-relabeled graph). `decompose` runs it wherever it reads no
    * s-clique rows, and the baselines (ND, PND, AND, AND-NN) always.
    */
  private[repro] def addScliqueCounts(dg: DirectedGraph, r: Int, s: Int, table: CliqueTable, sortNeeded: Boolean): Unit =
    RecListCliques.foreachClique(dg, s) { () =>
      val sBuf = new Array[Int](s)
      val subsets = new CliqueSubsets(s, r)
      clique => {
        System.arraycopy(clique, 0, sBuf, 0, s)
        if (sortNeeded) Util.insertionSort(sBuf, s)
        var j = 0
        while (j < subsets.size) { table.addCount(table.slotOf(subsets(sBuf, j)), 1L); j += 1 }
      }
    }

  /** The rows of the s-cliques, s = r + 1, on the rank-relabeled DAG `dg`
    * with clique table `table` ([[ScliqueRows.build]]). The s subset slots
    * of each s-clique come, at r = 2, from [[listTriangles]]' edge positions
    * through `edgeSlots`, the slot of each DAG position; at every other r,
    * from an s-clique listing that probes T once per r-subset, as the
    * per-subset count phase does. Throws, before concatenating the listing's
    * blocks, if the rows would not fit ([[ScliqueRows.requireFits]]).
    */
  private[repro] def scliqueRows(dg: DirectedGraph, r: Int, table: CliqueTable, edgeSlots: Array[Int]): ScliqueRows = {
    val (subsetSlots, num) =
      if (r == 2) {
        val (edges, num) = listTriangles(dg)
        Par.forBlocked(0, 3 * num, Par.BlockGrain) { (lo, hi) =>
          var t = lo
          while (t < hi) { edges(t) = edgeSlots(edges(t)); t += 1 }
        }
        (edges, num)
      } else
        collectPerRoot(dg, r) { (roots, buf) =>
          val subsets = new CliqueSubsets(r + 1, r)
          RecListCliques.foreachCliqueFromRoots(dg, r + 1, roots) { clique =>
            var j = 0
            while (j <= r) { buf += table.slotOf(subsets(clique, j)); j += 1 }
          }
        }
    ScliqueRows.build(subsetSlots, num, r, table.capacity)
  }

  /** Runs `fill` on each block of roots of `dg` in parallel, each block into
    * its own buffer, writing r + 1 values per (r + 1)-clique, and returns the
    * buffers concatenated in block order and the number of cliques. Throws,
    * before concatenating, unless the rows of that many cliques fit
    * ([[ScliqueRows.requireFits]]).
    */
  private def collectPerRoot(dg: DirectedGraph, r: Int)(fill: (Iterator[Int], IntBuffer) => Unit): (Array[Int], Int) = {
    val blocks = Par.blocksFor(dg.n, RecListCliques.RootGrain)
    val parts = Array.fill(blocks)(new IntBuffer())
    Par.forEachBlock(dg.n, blocks)((b, lo, hi) => fill(Iterator.range(lo, hi), parts(b)))
    val num = parts.map(_.size.toLong).sum / (r + 1)
    ScliqueRows.requireFits(num, r)
    (IntBuffer.concat(parts), num.toInt)
  }

  /** The count phase on the s-clique rows: adds each row's length, the
    * r-clique's s-clique count, to its slot. The counts equal those of
    * [[addScliqueCounts]].
    */
  private[repro] def addRowLengths(rows: ScliqueRows, table: CliqueTable): Unit =
    Par.forBlocked(0, table.capacity, Par.BlockGrain) { (lo, hi) =>
      var slot = lo
      while (slot < hi) {
        val k = rows.length(slot)
        if (k != 0) table.addCount(slot, k.toLong)
        slot += 1
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

  /** The triangles of a rank-relabeled DAG `dg`, three entries each: the
    * positions in `dg.adj` of the edges ab, ac and bc of triangle
    * (a, b, c), the triangles in lexicographic order. Returns the positions
    * and the number of triangles, for the (2,3) rows ([[scliqueRows]]).
    *
    * Root a stamps out(a) with `base + i`, i the index in out(a), so one
    * stamp read gives both membership and position: a hit at position q of
    * out(b) gives triangle (a, b, adj(q)) and all three positions. Throws,
    * before concatenating the blocks' buffers, if the rows would not fit
    * ([[ScliqueRows.requireFits]]).
    */
  private[repro] def listTriangles(dg: DirectedGraph): (Array[Int], Int) = {
    val off = dg.offsets
    val adj = dg.adj
    collectPerRoot(dg, 2) { (roots, out) =>
      val marks = Marks.acquire(dg.n)
      val stamp = marks.stamp
      try {
        while (roots.hasNext) {
          val a = roots.next()
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
                  val e = out.extend(3)
                  val ea = out.unsafeArray
                  ea(e) = aLo + i; ea(e + 1) = aLo + at; ea(e + 2) = q
                }
                q += 1
              }
              i += 1
            }
          }
        }
      } finally Marks.release(marks)
    }
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
