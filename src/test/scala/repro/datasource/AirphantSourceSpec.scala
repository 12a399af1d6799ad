package repro.datasource

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.datasources.v2.{BatchScanExec, DataSourceV2ScanRelation}
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{Builder, IoUConfig, Searcher}
import repro.corpus.CorpusGen
import repro.exp.{BuiltCorpus, Corpora}

/** Store reads, as counted by [[CountingStore]]. */
final case class Traffic(headerGets: Int, superpostBatches: Int, reads: Int) {
  def -(o: Traffic): Traffic =
    Traffic(headerGets - o.headerGets, superpostBatches - o.superpostBatches, reads - o.reads)
}

/** Delegating store that counts header GETs, superpost batches and all reads. */
final class CountingStore(inner: CloudStorage) extends CloudStorage {
  private val headerGets = new AtomicInteger
  private val superpostBatches = new AtomicInteger
  private val reads = new AtomicInteger

  def traffic: Traffic = Traffic(headerGets.get, superpostBatches.get, reads.get)

  def during(body: => Unit): Traffic = { val t0 = traffic; body; traffic - t0 }

  override def put(name: String, bytes: Array[Byte]): Unit = inner.put(name, bytes)
  override def size(name: String): Long = inner.size(name)
  override def list(): Seq[String] = inner.list()
  override def getNoCost(name: String): Array[Byte] = inner.getNoCost(name)

  override def get(name: String, ledger: FetchLedger): Array[Byte] = {
    reads.incrementAndGet()
    if (name.endsWith("/header")) headerGets.incrementAndGet()
    inner.get(name, ledger)
  }
  override def getRange(req: RangeReq, ledger: FetchLedger): Array[Byte] = {
    reads.incrementAndGet()
    inner.getRange(req, ledger)
  }
  override def getRangesParallel(reqs: Seq[RangeReq], ledger: FetchLedger): Seq[Array[Byte]] = {
    reads.incrementAndGet()
    if (reqs.exists(_.blob.contains("/superposts-"))) superpostBatches.incrementAndGet()
    inner.getRangesParallel(reqs, ledger)
  }
  override def getRangesKofN(reqs: Seq[RangeReq], k: Int,
                             ledger: FetchLedger): Seq[(Int, Array[Byte])] = {
    reads.incrementAndGet()
    inner.getRangesKofN(reqs, k, ledger)
  }
}

/** The `airphant` DataSourceV2: keyword pushdown resolves through the IoU
  * Sketch on the driver; parallel scan tasks fetch and exact-filter the
  * candidate documents; results must equal DuckDB over the postings
  * relation.
  */
class AirphantSourceSpec extends SparkSpec {

  private val config = IoUConfig(bins = 500, f0 = 1.0)

  private lazy val corpus: BuiltCorpus = Corpora.materialize(
    spark, "ds", "ds-bucket", CorpusGen.unif(spark, 250, 300, 7, seed = 11))

  private lazy val built: Builder.BuiltSketch =
    Builder.build(spark, corpus.docs, corpus.bucket, "iou", config, Some(corpus.profile))

  private def table(bucket: String = corpus.bucket, header: String = built.headerBlob,
                    options: Map[String, String] = Map.empty): DataFrame =
    spark.read.format("airphant")
      .option("bucket", bucket)
      .option("header", header)
      .options(options)
      .load()

  /** Run `body` with `store` registered as `bucket`, then unregister it. */
  private def withBucket[T](bucket: String, store: CloudStorage)(body: => T): T = {
    CloudStorage.register(bucket, store)
    try body finally CloudStorage.unregister(bucket)
  }

  private def scanOf(df: DataFrame): BatchScanExec =
    df.queryExecution.executedPlan.collectFirst { case s: BatchScanExec => s }
      .getOrElse(fail("no BatchScanExec in plan"))

  private def assertWordsMatchOracle(df: DataFrame, ws: Seq[String]): Unit =
    Oracle.assertEquivalent(
      df.filter(col("word").isin(ws: _*)).select("word", "doc_id"),
      s"SELECT word, doc_id FROM pairs WHERE word IN (${ws.map(w => s"'$w'").mkString(",")})",
      "pairs" -> pairsDf)

  private lazy val pairsDf: DataFrame = {
    import spark.implicits._
    corpus.docs.select(concat($"blob", lit(":"), $"offset") as "doc_id",
                       explode(array_distinct(split($"text", "\\s+"))) as "word")
      .filter(length($"word") > 0).cache()
  }

  test("schema is the (word, document) relation") {
    assert(table().schema.fieldNames.toSeq ==
      Seq("word", "doc_id", "blob", "offset", "length", "text"))
  }

  test("keyword via option matches DuckDB (oracle)") {
    val w = corpus.vocab(3)
    val got = spark.read.format("airphant")
      .option("bucket", corpus.bucket)
      .option("header", built.headerBlob)
      .option("keyword", w)
      .load()
      .select("doc_id")
    Oracle.assertEquivalent(got, s"SELECT doc_id FROM pairs WHERE word = '$w'",
                            "pairs" -> pairsDf)
  }

  test("pushed EqualTo filter matches DuckDB (oracle)") {
    corpus.vocab.take(5).foreach { w =>
      val got = table().filter(col("word") === w).select("doc_id")
      Oracle.assertEquivalent(got, s"SELECT doc_id FROM pairs WHERE word = '$w'",
                              "pairs" -> pairsDf)
    }
  }

  test("pushed In filter matches DuckDB (oracle)") {
    assertWordsMatchOracle(table(), corpus.vocab.slice(10, 13).toSeq)
  }

  test("keyword predicate is pushed into the scan (plan inspection)") {
    val w = corpus.vocab.head
    // The scan planned keyword partitions, not a full corpus scan.
    val parts = scanOf(table().filter(col("word") === w)).inputRDD.getNumPartitions
    assert(parts <= 4, s"expected few keyword partitions, got $parts")
  }

  test("full scan (no keyword) enumerates the whole (word, doc) relation") {
    val got = table().select("word", "doc_id")
    Oracle.assertEquivalent(got, "SELECT word, doc_id FROM pairs", "pairs" -> pairsDf)
  }

  test("unknown keyword returns an empty frame") {
    assert(table().filter(col("word") === "zz-not-here").count() == 0)
  }

  test("count by word equals document frequency") {
    import spark.implicits._
    val w = corpus.vocab(7)
    val want = pairsDf.filter($"word" === w).count()
    assert(table().filter($"word" === w).count() == want)
  }

  test("returned text really contains the keyword (executor-side filter ran)") {
    import spark.implicits._
    val w = corpus.vocab(9)
    table().filter($"word" === w).select("text").as[String].collect()
      .foreach(t => assert(t.split("\\s+").contains(w)))
  }

  test("additional predicates compose with the pushed keyword") {
    import spark.implicits._
    val w = corpus.vocab(2)
    val all = table().filter($"word" === w)
    val filtered = all.filter($"length" > 10)
    assert(filtered.count() == all.collect().count(_.getAs[Int]("length") > 10))
  }

  test("missing required options fail fast") {
    val e = intercept[Exception] {
      spark.read.format("airphant").load().collect()
    }
    assert(e.getMessage.contains("bucket") || e.getMessage.contains("header"))
  }

  test("offsets and lengths in rows are valid ranges of their blob") {
    import spark.implicits._
    val w = corpus.vocab(5)
    table().filter($"word" === w)
      .select("blob", "offset", "length").as[(String, Long, Int)].collect()
      .foreach { case (blob, off, len) =>
        assert(off >= 0 && off + len <= corpus.store.size(blob))
      }
  }

  test("sliceDocs option, in any case, plans one partition per candidate at 1") {
    val searcher = Searcher.shared(corpus.bucket, built.headerBlob)
    val (w, candidates) = corpus.vocab.iterator
      .map(w => (w, searcher.lookup(w, new FetchLedger).size))
      .find(_._2 > 1).getOrElse(fail("no word with several candidates"))
    Seq("sliceDocs", "slicedocs", "SLICEDOCS").foreach { key =>
      val df = table(options = Map(key -> "1")).filter(col("word") === w)
      assert(scanOf(df).inputRDD.getNumPartitions == candidates, key)
    }
  }

  test("a query reads the header once per JVM and the superposts once per query") {
    val store = new CountingStore(corpus.store)
    val ws = corpus.vocab.slice(20, 24).toSeq
    withBucket("ds-counting", store) {
      def query(): DataFrame = table("ds-counting").filter(col("word").isin(ws: _*))
      val first = store.during(query().collect())
      assert((first.headerGets, first.superpostBatches) == (1, 1), "first")
      val second = store.during(query().collect())
      assert((second.headerGets, second.superpostBatches) == (0, 1), "second")
      // Spark plans from copies of the scan node; they share one lookup.
      val df = query()
      val planned = store.during { df.queryExecution.executedPlan; df.collect() }
      assert((planned.headerGets, planned.superpostBatches) == (0, 1), "plan, then collect")
    }
  }

  test("description names bucket, header and keywords without a lookup") {
    val store = new CountingStore(corpus.store)
    val ws = corpus.vocab.slice(40, 42).toSeq
    withBucket("ds-describe", store) {
      val df = table("ds-describe").filter(col("word").isin(ws: _*))
      var description = ""
      val traffic = store.during {
        description = df.queryExecution.optimizedPlan
          .collectFirst { case r: DataSourceV2ScanRelation => r.scan.description() }
          .getOrElse(fail("no DataSourceV2ScanRelation in plan"))
      }
      assert(traffic == Traffic(0, 0, 0))
      (Seq("ds-describe", built.headerBlob) ++ ws).foreach(s => assert(description.contains(s), s))
      assert(scanOf(df).toString.contains(description))
    }
  }

  test("a rebuild under the same bucket and prefix is never served the old header") {
    val ws = corpus.vocab.slice(30, 33).toSeq
    val first = Builder.build(spark, corpus.docs, corpus.bucket, "iou-rebuild", config,
                              Some(corpus.profile))
    assertWordsMatchOracle(table(header = first.headerBlob), ws)
    val second = Builder.build(spark, corpus.docs, corpus.bucket, "iou-rebuild",
                               IoUConfig(bins = 300, f0 = 1.0, layersOverride = Some(2)),
                               Some(corpus.profile))
    assert(second.headerBlob == first.headerBlob && second.binsPerLayer != first.binsPerLayer)
    assertWordsMatchOracle(table(header = second.headerBlob), ws)
    assert(Searcher.shared(corpus.bucket, second.headerBlob).mht.binsPerLayer == second.binsPerLayer)
  }

  test("re-registering a bucket serves reads from the new store") {
    val (oldStore, newStore) = (new CountingStore(corpus.store), new CountingStore(corpus.store))
    val ws = corpus.vocab.slice(50, 53).toSeq
    withBucket("ds-reregister", oldStore) {
      assertWordsMatchOracle(table("ds-reregister"), ws)
      CloudStorage.register("ds-reregister", newStore)
      val before = oldStore.traffic
      val traffic = newStore.during(assertWordsMatchOracle(table("ds-reregister"), ws))
      assert(oldStore.traffic == before)
      assert((traffic.headerGets, traffic.superpostBatches) == (1, 1))
    }
  }

  test("unregistering a bucket drops its shared Searcher") {
    val store = new CountingStore(corpus.store)
    withBucket("ds-unregister", store) {
      table("ds-unregister").filter(col("word") === corpus.vocab(4)).collect()
      assert(Searcher.sharedStores.exists(_ eq store))
    }
    assert(!Searcher.sharedStores.exists(_ eq store))
  }
}
