package repro.core

import repro.SparkSpec
import repro.par.Par

/** The three §5.5 update-aggregation options: per-round dedup, parallel
  * offers, reuse across rounds.
  */
class UpdateAggregatorSpec extends SparkSpec {

  private def kinds = Seq(
    UpdateAggregator.SimpleArrayKind,
    UpdateAggregator.ListBufferKind,
    UpdateAggregator.HashTableKind
  )

  for (kind <- kinds) {
    test(s"${kind.label}: dedupes within a round") {
      val agg = UpdateAggregator(kind, 1000)
      agg.beginRound(1000)
      agg.offer(5); agg.offer(5); agg.offer(7); agg.offer(5)
      assert(agg.drain().sorted.toSeq === Seq(5, 7))
    }

    test(s"${kind.label}: parallel offers collect each slot once") {
      val agg = UpdateAggregator(kind, 10000)
      agg.beginRound(10000)
      Par.forRange(0, 100000)(i => agg.offer(i % 1000))
      val got = agg.drain()
      assert(got.length === 1000)
      assert(got.sorted.toSeq === (0 until 1000).toSeq)
    }

    test(s"${kind.label}: rounds are independent") {
      val agg = UpdateAggregator(kind, 100)
      agg.beginRound(100)
      agg.offer(1); agg.offer(2)
      assert(agg.drain().sorted.toSeq === Seq(1, 2))
      agg.beginRound(100)
      agg.offer(2); agg.offer(3)
      assert(agg.drain().sorted.toSeq === Seq(2, 3))
      agg.beginRound(100)
      assert(agg.drain().isEmpty)
    }

    test(s"${kind.label}: many small rounds reuse storage") {
      val agg = UpdateAggregator(kind, 5000)
      for (round <- 0 until 50) {
        agg.beginRound(16)
        Par.forRange(0, 64)(i => agg.offer((round * 64 + i) % 5000))
        val got = agg.drain()
        assert(got.length === 64)
        assert(got.toSet.size === 64)
      }
    }
  }

  test("hash-table: expectedUpdates bound is honored without overflow") {
    val agg = UpdateAggregator(UpdateAggregator.HashTableKind, 1 << 20)
    agg.beginRound(10) // small estimate, but offers stay within it
    Par.forRange(0, 100)(i => agg.offer(i % 10))
    assert(agg.drain().length === 10)
  }

  test("hash-table: the probe array grows only when a round's region needs more cells") {
    val agg = new HashTableAggregator(1 << 22)
    assert(agg.cells === 64, "nothing sized from the capacity up front")
    agg.beginRound(1000)
    assert(agg.cells === 2048)
    Par.forRange(0, 3000)(i => agg.offer(i % 1000))
    assert(agg.drain().sorted.toSeq === (0 until 1000))
    // a smaller round reuses the array; the larger round's cells are stale
    agg.beginRound(10)
    assert(agg.cells === 2048)
    agg.offer(5); agg.offer(5); agg.offer(999)
    assert(agg.drain().sorted.toSeq === Seq(5, 999))
    // a round bounded by the capacity grows it to 2 · capacity cells
    agg.beginRound(Long.MaxValue)
    assert(agg.cells === (1 << 23))
    agg.offer(7)
    assert(agg.drain().toSeq === Seq(7))
  }

  test("hash-table: a capacity above 2^29 is rejected with the limit named") {
    val limit = HashTableAggregator.MaxCapacity
    val e = intercept[IllegalArgumentException](new HashTableAggregator(limit + 1))
    assert(e.getMessage.contains(s"at most 2^29 = $limit slots"))
    assert(e.getMessage.contains(s"got capacity ${limit + 1}"))
  }

  test("hash-table: parallel drain over many blocks reports each slot once per round") {
    Par.withThreads(4) {
      val agg = new HashTableAggregator(100000)
      // a probe region of 2^17 cells, sixteen drain blocks
      agg.beginRound(50000)
      assert(2 * 50000 > Par.BlockGrain, "the region must span several blocks")
      Par.forRange(0, 120000)(i => agg.offer((i * 7) % 40000))
      val big = agg.drain()
      assert(big.length === 40000)
      assert(big.sorted.toSeq === (0 until 40000))
      // a smaller region that still spans several blocks, over cells the
      // larger round left stamped with its own round
      agg.beginRound(2 * Par.BlockGrain)
      Par.forRange(0, 9000)(i => agg.offer(50000 + i % 3000))
      val small = agg.drain()
      assert(small.sorted.toSeq === (50000 until 53000))
      // a one-block round
      agg.beginRound(10)
      agg.offer(7); agg.offer(99999)
      assert(agg.drain().sorted.toSeq === Seq(7, 99999))
    }
  }

  test("hash-table: after contended offers from 4 workers, the drain returns every offered slot exactly once") {
    Par.withThreads(4) {
      val agg = new HashTableAggregator(1 << 18)
      for ((distinct, round) <- Seq(200000, 3000, 90000).zipWithIndex) {
        agg.beginRound(distinct.toLong)
        // every worker offers every slot, in a different order, at once
        Par.forRange(0, 4, grain = 1) { w =>
          var i = 0
          while (i < distinct) { agg.offer((i * (2 * w + 1) + round) % distinct); i += 1 }
        }
        val got = agg.drain()
        assert(got.length === distinct, s"round $round")
        assert(got.sorted.toSeq === (0 until distinct), s"round $round")
      }
    }
  }

  test("list-buffer: more threads than blocks still collects all") {
    val agg = UpdateAggregator(UpdateAggregator.ListBufferKind, 50000)
    agg.beginRound(50000)
    Par.forRange(0, 50000)(i => agg.offer(i))
    assert(agg.drain().length === 50000)
  }

  test("list-buffer: a pool above its thread limit is rejected with the limit named") {
    val limit = ListBufferAggregator.MaxThreads
    Par.withThreads(limit)(new ListBufferAggregator(10))
    val e = Par.withThreads(limit + 1)(intercept[IllegalArgumentException](new ListBufferAggregator(10)))
    assert(e.getMessage.contains(s"at most $limit threads"))
    assert(e.getMessage.contains(s"the pool has ${limit + 1}"))
  }

  test("list-buffer: a capacity whose array overflows Int is rejected with the limit named") {
    import ListBufferAggregator.{BlockSize, MaxThreads}
    val limit = Int.MaxValue - MaxThreads * BlockSize
    val e = intercept[IllegalArgumentException](new ListBufferAggregator(limit + 1))
    assert(e.getMessage.contains(s"capacity ${limit + 1} exceeds its limit $limit"))
    assert(e.getMessage.contains(s"Int.MaxValue - ${MaxThreads}·$BlockSize"))
  }
}
