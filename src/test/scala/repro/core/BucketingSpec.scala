package repro.core

import repro.SparkSpec
import repro.par.Par
import scala.util.Random

/** The Julienne-style bucketing structure against a naive simulation. */
class BucketingSpec extends SparkSpec {

  test("extracts buckets in nondecreasing order, all ids exactly once") {
    val b = new Bucketing(100)
    val rnd = new Random(1)
    val init = Array.tabulate(100)(_ => rnd.nextInt(50).toLong)
    for (i <- 0 until 100) b.insert(i, init(i))
    var last = -1L
    val seen = scala.collection.mutable.Set[Int]()
    var nb = b.nextBucket()
    while (nb != null) {
      val (v, ids) = nb
      assert(v >= last)
      last = v
      ids.foreach { id => assert(seen.add(id), s"id $id extracted twice") }
      ids.foreach(id => assert(init(id) === v))
      nb = b.nextBucket()
    }
    assert(seen.size === 100)
  }

  test("updates move ids to lower buckets; clamped at the frontier") {
    val b = new Bucketing(10)
    for (i <- 0 until 10) b.insert(i, 5L)
    // extract nothing yet; update id 0 down to 2
    b.updateAll(Array(0))(_ => 2L)
    val (v1, ids1) = b.nextBucket()
    assert(v1 === 2L)
    assert(ids1.toSeq === Seq(0))
    // now frontier is 2: an update to 0 clamps to 2
    b.updateAll(Array(1))(_ => 0L)
    val (v2, ids2) = b.nextBucket()
    assert(v2 === 2L)
    assert(ids2.toSeq === Seq(1))
    val (v3, ids3) = b.nextBucket()
    assert(v3 === 5L)
    assert(ids3.sorted.toSeq === (2 until 10).toSeq)
  }

  test("updates on peeled ids are ignored") {
    val b = new Bucketing(3)
    b.insert(0, 1L); b.insert(1, 2L); b.insert(2, 3L)
    val (_, ids) = b.nextBucket()
    assert(ids.toSeq === Seq(0))
    b.updateAll(Array(0))(_ => 0L) // peeled; no effect
    val (v, ids2) = b.nextBucket()
    assert(v === 2L && ids2.toSeq === Seq(1))
  }

  test("skips large empty ranges via overflow rematerialization") {
    val b = new Bucketing(4, window = 8)
    b.insert(0, 0L)
    b.insert(1, 1000000L)
    b.insert(2, 1000000L)
    b.insert(3, 2000000L)
    assert(b.nextBucket()._1 === 0L)
    val (v, ids) = b.nextBucket()
    assert(v === 1000000L)
    assert(ids.sorted.toSeq === Seq(1, 2))
    assert(b.nextBucket()._1 === 2000000L)
    assert(b.nextBucket() === null)
  }

  test("repeated updates settle at the lowest value") {
    val b = new Bucketing(2, window = 4)
    b.insert(0, 100L)
    b.insert(1, 0L)
    b.updateAll(Array(0))(_ => 50L)
    b.updateAll(Array(0))(_ => 20L)
    b.updateAll(Array(0))(_ => 20L) // no-op duplicate
    assert(b.nextBucket()._1 === 0L)
    val (v, ids) = b.nextBucket()
    assert(v === 20L && ids.toSeq === Seq(0))
  }

  test("randomized peel simulation matches a naive priority structure") {
    val rnd = new Random(7)
    val n = 200
    val b = new Bucketing(n, window = 16)
    val value = Array.tabulate(n)(_ => rnd.nextInt(40).toLong)
    for (i <- 0 until n) b.insert(i, value(i))
    val alive = Array.fill(n)(true)
    var frontier = 0L
    var extracted = 0
    while (extracted < n) {
      val clamped = (0 until n).filter(alive).map(i => math.max(value(i), frontier))
      val expectMin = clamped.min
      val (v, ids) = b.nextBucket()
      assert(v === expectMin)
      frontier = v
      val expectedIds = (0 until n).filter(i => alive(i) && math.max(value(i), frontier) == v)
      assert(ids.sorted.toSeq === expectedIds)
      ids.foreach(i => alive(i) = false)
      extracted += ids.length
      // random decrements of some survivors
      for (i <- 0 until n if alive(i) && rnd.nextBoolean()) {
        value(i) = math.max(frontier, value(i) - rnd.nextInt(3))
        b.updateAll(Array(i))(_ => value(i))
      }
    }
    assert(b.nextBucket() === null)
  }

  test("single-id insert keeps its require messages") {
    val b = new Bucketing(4)
    val neg = intercept[IllegalArgumentException](b.insert(0, -1L))
    assert(neg.getMessage === "requirement failed: bucket value must be >= 0, got -1")
    b.insert(3, 2L)
    val twice = intercept[IllegalArgumentException](b.insert(3, 5L))
    assert(twice.getMessage === "requirement failed: id 3 already present")
  }

  /** Peels `n` ids with random initial buckets under `threads` workers,
    * moving a random half of the survivors after every extraction: some
    * down within the window, some within the overflow, some up (no-ops),
    * with batches above [[Par.BlockGrain]]. Checks every extraction
    * against a naive priority structure and returns the extracted ids in
    * order.
    */
  private def peelAgainstNaive(threads: Int, n: Int, window: Int, seed: Long): Seq[(Long, Seq[Int])] =
    Par.withThreads(threads) {
      val rnd = new Random(seed)
      val b = new Bucketing(n, window)
      // a quarter start in bucket 0, so the first extraction is above the grain
      val value = Array.tabulate(n)(_ => if (rnd.nextInt(4) == 0) 0L else rnd.nextInt(20 * window).toLong)
      val order = rnd.shuffle((0 until n).toVector).toArray
      b.insertAll(order)(value)
      val alive = Array.fill(n)(true)
      var remaining = n
      val out = Seq.newBuilder[(Long, Seq[Int])]
      while (remaining > 0) {
        val (v, ids) = b.nextBucket()
        val expectMin = (0 until n).iterator.filter(alive).map(value).min
        assert(v === expectMin)
        val expected = (0 until n).filter(i => alive(i) && value(i) == v)
        assert(ids.sorted.toSeq === expected, s"bucket $v")
        ids.foreach(i => alive(i) = false)
        remaining -= ids.length
        out += v -> ids.toSeq
        val moved = rnd.shuffle((0 until n).filter(alive)).take(remaining / 2).toArray
        val target = new Array[Long](n)
        moved.foreach { i =>
          target(i) = rnd.nextInt(3) match {
            case 0 => v + rnd.nextInt(window)                   // into (or within) the window
            case 1 => value(i) - rnd.nextInt(3 * window)        // within the overflow, if it started there
            case _ => value(i) + 1 + rnd.nextInt(window)        // up: ignored
          }
          val clamped = math.max(target(i), v)
          if (clamped < value(i)) value(i) = clamped
        }
        // peeled ids are ignored too
        b.updateAll(moved ++ ids)(i => if (alive(i)) target(i) else 0L)
      }
      assert(b.nextBucket() === null)
      out.result()
    }

  test("batched insert and update match a naive priority structure under 4 threads, above the grain") {
    val n = 6 * Par.BlockGrain
    val got = peelAgainstNaive(4, n, window = 16, seed = 11)
    val all = got.flatMap(_._2)
    assert(all.length === n)
    assert(all.distinct.length === n, "an id was extracted twice")
    assert(got.exists(_._2.length > Par.BlockGrain), "no extraction above the grain")
  }

  test("batched placement keeps each list's sequential order: 4 threads extract what 1 thread does") {
    val n = 5 * Par.BlockGrain
    assert(peelAgainstNaive(4, n, window = 8, seed = 5) === peelAgainstNaive(1, n, window = 8, seed = 5))
  }
}
