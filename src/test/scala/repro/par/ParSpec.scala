package repro.par

import java.util.concurrent.atomic.AtomicLong
import repro.SparkSpec

class ParSpec extends SparkSpec {

  test("forRange visits every index exactly once") {
    val hits = new java.util.concurrent.atomic.AtomicIntegerArray(10000)
    Par.forRange(0, 10000)(i => hits.incrementAndGet(i))
    for (i <- 0 until 10000) assert(hits.get(i) === 1)
  }

  test("forRange handles empty and tiny ranges") {
    var c = 0
    Par.forRange(5, 5)(_ => c += 1)
    assert(c === 0)
    Par.forRange(0, 1)(_ => c += 1)
    assert(c === 1)
  }

  test("forBlocked covers the range with disjoint blocks") {
    val seen = new java.util.concurrent.atomic.AtomicIntegerArray(5000)
    Par.forBlocked(0, 5000, grain = 7) { (lo, hi) =>
      var i = lo
      while (i < hi) { seen.incrementAndGet(i); i += 1 }
    }
    for (i <- 0 until 5000) assert(seen.get(i) === 1)
  }

  test("forBlocked with lo > 0 hands out contiguous blocks of exactly [lo, hi)") {
    for (threads <- Seq(1, 4)) {
      val blocks = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Int)]()
      val expectedBlocks = Par.withThreads(threads) {
        Par.forBlocked(1000, 6000, grain = 7)((lo, hi) => blocks.add((lo, hi)))
        Par.blocksFor(5000, 7)
      }
      val sorted = blocks.toArray(Array.empty[(Int, Int)]).sorted
      assert(sorted.length === expectedBlocks, s"$threads thread(s)")
      assert(sorted.head._1 === 1000 && sorted.last._2 === 6000, s"$threads thread(s)")
      sorted.sliding(2).foreach { case Array(a, b) => assert(a._2 === b._1) case _ => }
      assert(sorted.forall { case (lo, hi) => lo < hi })
    }
    assert(Par.withThreads(4)(Par.blocksFor(5000, 7)) === 16)
    assert(Par.withThreads(1)(Par.blocksFor(5000, 7)) === 1)
  }

  /** Scatters the items 0 until keys.length by `keys` (-1 = no bucket) into
    * one dense array, bucket 0 first, under `threads` workers; returns it and
    * the block count.
    */
  private def scatterUnder(threads: Int, keys: Array[Int], buckets: Int): (Seq[Int], Int) =
    Par.withThreads(threads) {
      val out = Array.fill(keys.length)(-1)
      var next = 0
      Par.scatter(keys.length, buckets) { (lo, hi, hist) =>
        for (i <- lo until hi if keys(i) >= 0) hist(keys(i)) += 1
      } { (_, size) => val at = next; next += size; at } { (lo, hi, pos) =>
        for (i <- lo until hi if keys(i) >= 0) { out(pos(keys(i))) = i; pos(keys(i)) += 1 }
      }
      (out.take(next).toSeq, Par.scatterBlocks(keys.length, buckets))
    }

  for ((buckets, label) <- Seq((3, "more blocks than buckets"), (1000, "more buckets than blocks"))) {
    test(s"scatter keeps each bucket in item order and drops items with no bucket, on 1 and 4 threads: $label") {
      val rnd = new scala.util.Random(buckets)
      val keys = Array.fill(100000)(rnd.nextInt(buckets + 1) - 1)
      // bucket by bucket, each bucket's items ascending (sortBy is stable); key -1 nowhere
      val expected = keys.indices.filter(keys(_) >= 0).sortBy(keys(_))
      assert(expected.length < keys.length, "no item is dropped")
      val (four, blocks) = scatterUnder(4, keys, buckets)
      if (buckets == 3) assert(blocks > buckets) else assert(blocks < buckets && blocks > 1)
      assert(four === expected)
      val (one, oneBlock) = scatterUnder(1, keys, buckets)
      assert(oneBlock === 1)
      assert(one === four)
    }
  }

  test("withThreads(1) executes sequentially but correctly") {
    val acc = new AtomicLong(0)
    Par.withThreads(1) {
      assert(Par.parallelism === 1)
      Par.forRange(0, 1000)(i => acc.addAndGet(i.toLong))
    }
    assert(acc.get() === 499500L)
  }

  test("withThreads restores the previous pool") {
    val before = Par.pool
    Par.withThreads(2) { assert(Par.parallelism === 2) }
    assert(Par.pool eq before)
  }

  test("withThreads rejects non-positive counts") {
    intercept[IllegalArgumentException](Par.withThreads(0) {})
  }

  test("nested parallel loops complete") {
    val acc = new AtomicLong(0)
    Par.forRange(0, 64, grain = 1) { _ =>
      Par.forRange(0, 64, grain = 1)(_ => acc.incrementAndGet())
    }
    assert(acc.get() === 64L * 64L)
  }
}
