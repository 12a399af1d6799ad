package repro.corpus

import org.scalacheck.Gen

import repro.{GenChecks, SparkSpec}

class ParsersSpec extends SparkSpec with GenChecks {

  test("whitespace analyzer splits on runs of whitespace, keeps tokens verbatim") {
    assert(Parsers.words("hello world").toSeq == Seq("hello", "world"))
    assert(Parsers.words("  a\t b\n c ").toSeq == Seq("a", "b", "c"))
    assert(Parsers.words("Hello HELLO").toSeq == Seq("Hello", "HELLO")) // no lowercasing
    assert(Parsers.words("").isEmpty)
    assert(Parsers.words("   ").isEmpty)
    // The no-break space is a word character, as in Lucene's analyzer.
    assert(Parsers.words("a\u00A0b \u00A0").toSeq == Seq("a\u00A0b", "\u00A0"))
  }

  test("the JVM and Spark forms of the tokenizer give the same words") {
    import spark.implicits._
    val blank = Gen.oneOf(" ", "\t", "\n", "\r", "\f", "\u000B", "\r\n", "  ")
    val word = Gen.oneOf("a", "Zz", "wörd", "x1", "\u00A0", "a\u00A0b", "日本")
    val genText = Gen.frequency(
      1 -> Gen.const(""),
      2 -> Gen.listOf(blank).map(_.mkString),
      10 -> Gen.listOf(Gen.oneOf(blank, word)).map(_.mkString))
    val fixed = Seq("", " ", "\t\n\r\f\u000B", " lead", "trail\n", "\u000Bmid\fdle\r",
                    "\u00A0", "a \u00A0 b", "dup dup\tdup")
    forAllG(Gen.listOfN(150, genText), trials = 3) { generated =>
      val texts = (fixed ++ generated).toIndexedSeq
      val df = texts.zipWithIndex.map { case (t, i) => (i.toLong, t) }.toDF("doc_id", "text")
      Seq(false, true).foreach { distinct =>
        val rows = Parsers.wordRows(df, distinct, $"doc_id").as[(Long, String)].collect()
        val byDoc = rows.groupBy(_._1).view.mapValues(_.map(_._2).toSeq).toMap
        texts.indices.foreach { i =>
          val jvm = Parsers.words(texts(i)).toSeq
          val want = if (distinct) jvm.distinct else jvm
          assert(byDoc.getOrElse(i.toLong, Nil) == want, s"text ${texts(i).map(_.toInt)}")
        }
      }
    }
  }

  test("distinctWords deduplicates") {
    assert(Parsers.distinctWords("a b a b c") == Set("a", "b", "c"))
  }

  test("containsWord is exact token match, not substring") {
    assert(Parsers.containsWord("hello airphant", "airphant"))
    assert(!Parsers.containsWord("hello airphants", "airphant"))
    assert(!Parsers.containsWord("helloairphant", "airphant"))
  }

  test("splitBlob splits newline-delimited docs with exact byte ranges") {
    val bytes = "doc one\ndoc two\nthird".getBytes("UTF-8")
    val docs = Parsers.splitBlob(bytes)
    assert(docs.map(_._3) == Seq("doc one", "doc two", "third"))
    docs.foreach { case (off, len, text) =>
      assert(new String(bytes, off.toInt, len, "UTF-8") == text)
    }
  }

  test("splitBlob skips empty lines and trailing newline") {
    assert(Parsers.splitBlob("a\n\n\nb\n".getBytes).map(_._3) == Seq("a", "b"))
    assert(Parsers.splitBlob(Array.empty[Byte]).isEmpty)
    assert(Parsers.splitBlob("\n\n".getBytes).isEmpty)
  }

  test("splitBlob round trips any newline-joined document list") {
    val genDocs = Gen.listOf(Gen.nonEmptyListOf(Gen.alphaNumChar).map(_.mkString))
    forAllG(genDocs, trials = 100) { texts =>
      val bytes = texts.mkString("\n").getBytes("UTF-8")
      assert(Parsers.splitBlob(bytes).map(_._3) == texts)
    }
  }

  test("range identity: each (offset, length) slices back to the text") {
    forAllG(Gen.listOfN(5, Gen.nonEmptyListOf(Gen.alphaChar).map(_.mkString)), trials = 50) { texts =>
      val bytes = (texts.mkString("\n") + "\n").getBytes("UTF-8")
      Parsers.splitBlob(bytes).foreach { case (off, len, text) =>
        assert(new String(bytes, off.toInt, len, "UTF-8") == text)
      }
    }
  }
}
