package repro.perfbench

import org.apache.spark.sql.{Row, SparkSession}

import repro.core.{BoolQuery, SearchResult}
import repro.corpus.{Doc, LogCorpusGen}

/** Shows that the benchmark's answer check accepts the program's answers
  * and flags corrupted ones, for every query type, on a small windows-like
  * corpus. Exits 0 only if every corruption is flagged.
  */
object SelfTest {

  def run(spark: SparkSession): Int = {
    val rec = new Recorder
    val spec = LogCorpusGen.windows.copy(nDocs = 3000)
    val s = Setup.run(spark, spec, "perfbench-selftest", rec)
    val ex = ExactIndex.fromCorpus(s.docs)
    val byDf = ex.vocab.sortBy(w => (-ex.df(w), w))
    val (w1, w2, w3) = (byDf(0), byDf(1), byDf(byDf.length / 2))
    var failures = 0

    def expect(label: String, err: Option[String], flagged: Boolean): Unit = {
      val ok = err.isDefined == flagged
      if (!ok) failures += 1
      val what = if (flagged) "flagged" else "accepted"
      println(s"${if (ok) "ok  " else "FAIL"} $label: ${err.getOrElse("no error")} (must be $what)")
    }

    def inProcess(q: Query): SearchResult = Workloads.execute(spark, s, q) match {
      case InProcess(r) => r
      case other        => sys.error(s"unexpected $other")
    }

    // A document none of the query words occurs in, to plant in answers.
    val stranger: Doc = byDf.reverseIterator.flatMap(w => inProcess(Full(w)).docs)
      .find(d => !d.text.split("\\s+").exists(Set(w1, w2, w3)))
      .getOrElse(sys.error("self-test corpus has no document without the query words"))

    def corruptions(label: String, q: Query, docs: Vector[Doc]): Seq[(String, Vector[Doc])] = Seq(
      s"$label, one document dropped"  -> docs.tail,
      s"$label, foreign document added" -> (stranger +: docs.tail),
      s"$label, document text altered" -> (docs.head.copy(text = docs.head.text + " x") +: docs.tail),
      s"$label, duplicate document"    -> (docs.head +: docs.tail :+ docs.head),
    )

    val inProcessQueries: Seq[(String, Query)] = Seq(
      "top-10" -> TopK(w1, Workloads.K),
      "exhaustive" -> Full(w1),
      "AND" -> Bool(BoolQuery.And(Seq(BoolQuery.Term(w1), BoolQuery.Term(w2)))),
      "OR" -> Bool(BoolQuery.Or(Seq(BoolQuery.Term(w2), BoolQuery.Term(w3)))),
    )
    inProcessQueries.foreach { case (label, q) =>
      val r = inProcess(q)
      expect(s"$label answer as returned", Workloads.check(ex, q, InProcess(r)), flagged = false)
      corruptions(label, q, r.docs).foreach { case (what, docs) =>
        expect(what, Workloads.check(ex, q, InProcess(r.copy(docs = docs))), flagged = true)
      }
    }

    val kq = Keywords(Seq(w2, w3, byDf.last, byDf(byDf.length / 3)))
    Workloads.execute(spark, s, kq) match {
      case Rows(rows) =>
        expect("DSv2 answer as returned", Workloads.check(ex, kq, Rows(rows)), flagged = false)
        val r0 = rows.head
        def withDocId(r: Row, id: String) =
          Row.fromSeq(r.toSeq.updated(1, id))
        val strangerRow = Row(w1, stranger.ref.docId, stranger.ref.blob, stranger.ref.offset,
                              stranger.ref.length, stranger.text)
        Seq(
          "DSv2, one row dropped" -> rows.tail,
          "DSv2, doc_id shifted" -> (withDocId(r0, s"${r0.getString(2)}:${r0.getLong(3) + 1}") +: rows.tail),
          "DSv2, foreign row added" -> (rows :+ strangerRow),
          "DSv2, duplicate row" -> (rows :+ r0),
        ).foreach { case (what, rs) => expect(what, Workloads.check(ex, kq, Rows(rs)), flagged = true) }
      case other => sys.error(s"unexpected $other")
    }
    s.close()
    println(if (failures == 0) "selftest passed" else s"selftest FAILED: $failures case(s)")
    if (failures == 0) 0 else 1
  }
}
