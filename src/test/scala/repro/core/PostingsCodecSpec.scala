package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.GenChecks

class PostingsCodecSpec extends AnyFunSuite with GenChecks {

  private val genPosting: Gen[Posting] = for {
    blob <- Gen.choose(0, 50)
    off <- Gen.choose(0L, 1L << 39)
    len <- Gen.choose(0, 1 << 20)
  } yield Posting(blob, off, len)

  private val genSorted: Gen[Vector[Posting]] =
    Gen.listOf(genPosting).map(ps =>
      ps.distinctBy(p => (p.blobId, p.offset)).sorted.toVector)

  test("encode/decode is the identity on sorted postings lists") {
    forAllG(genSorted, trials = 200) { ps =>
      assert(PostingsCodec.decode(PostingsCodec.encode(ps)) == ps)
    }
  }

  test("empty list encodes to a single varint") {
    val bytes = PostingsCodec.encode(Vector.empty)
    assert(bytes.length == 1)
    assert(PostingsCodec.decode(bytes).isEmpty)
  }

  test("encoding rejects unsorted input") {
    val bad = Vector(Posting(1, 10, 5), Posting(0, 0, 5))
    intercept[IllegalArgumentException](PostingsCodec.encode(bad))
  }

  test("encoding rejects duplicate postings") {
    val bad = Vector(Posting(0, 10, 5), Posting(0, 10, 5))
    intercept[IllegalArgumentException](PostingsCodec.encode(bad))
  }

  test("delta encoding is compact for dense same-blob postings") {
    val dense = Vector.tabulate(1000)(i => Posting(0, i.toLong * 120, 119))
    val bytes = PostingsCodec.encode(dense)
    // ~3 bytes/posting (offset delta 120 + length 119 are 1-2 byte varints)
    assert(bytes.length < 5000, s"encoded ${bytes.length} bytes")
  }

  test("varint round trip across magnitudes") {
    val out = new java.io.ByteArrayOutputStream()
    val values = Seq(0L, 1L, 127L, 128L, 300L, 1L << 20, 1L << 40, Long.MaxValue)
    values.foreach(PostingsCodec.writeVarLong(out, _))
    val r = new PostingsCodec.Reader(out.toByteArray)
    values.foreach(v => assert(r.readVarLong() == v))
    assert(r.remaining == 0)
  }

  test("negative varint is rejected") {
    intercept[IllegalArgumentException](
      PostingsCodec.writeVarLong(new java.io.ByteArrayOutputStream(), -1L))
  }

  test("string round trip including unicode") {
    val out = new java.io.ByteArrayOutputStream()
    val strings = Seq("", "hello", "héllo wörld", "日本語", "a" * 1000)
    strings.foreach(PostingsCodec.writeString(out, _))
    val r = new PostingsCodec.Reader(out.toByteArray)
    strings.foreach(s => assert(r.readString() == s))
  }

  test("pointer and entry-list codecs round trip, up to Int.MaxValue fields") {
    val max = BinPointer(Int.MaxValue, Int.MaxValue, Int.MaxValue)
    val ptrs = Seq(BinPointer(0, 0, 0), max, BinPointer(3, Int.MaxValue, 1))
    val entries = Seq("" -> BinPointer(1, 2, 3), "héllo" -> max, "zz" -> BinPointer(0, 0, 0))
    val out = new java.io.ByteArrayOutputStream()
    ptrs.foreach(PostingsCodec.writePointer(out, _))
    PostingsCodec.writeEntries(out, entries)
    val r = new PostingsCodec.Reader(out.toByteArray)
    ptrs.foreach(p => assert(r.readPointer() == p))
    assert(r.readEntries() == entries)
    assert(r.remaining == 0)
  }

  test("a truncated entry list throws instead of returning a short list") {
    val out = new java.io.ByteArrayOutputStream()
    PostingsCodec.writeEntries(out, Seq("alpha" -> BinPointer(1, 200, 300),
                                        "beta" -> BinPointer(Int.MaxValue, 5, 6)))
    val bytes = out.toByteArray
    (0 until bytes.length).foreach { n =>
      intercept[IndexOutOfBoundsException](new PostingsCodec.Reader(bytes.take(n)).readEntries())
    }
  }

  test("posting ordering is (blobId, offset) lexicographic") {
    assert(Posting(0, 5, 1) < Posting(0, 6, 1))
    assert(Posting(0, 999, 1) < Posting(1, 0, 1))
    assert(Posting(2, 1, 1).compare(Posting(2, 1, 9)) == 0) // length not identity
  }

  test("posting key packs blob and offset without collisions") {
    forAllG(Gen.zip(genPosting, genPosting), trials = 200) { case (a, b) =>
      if (a.blobId != b.blobId || a.offset != b.offset) assert(a.key != b.key)
      else assert(a.key == b.key)
    }
  }

  test("posting rejects negative fields") {
    intercept[IllegalArgumentException](Posting(-1, 0, 0))
    intercept[IllegalArgumentException](Posting(0, -1, 0))
    intercept[IllegalArgumentException](Posting(0, 0, -1))
  }

  test("intersectSorted equals set intersection") {
    forAllG(Gen.listOfN(3, genSorted), trials = 100) { lists =>
      val got = Posting.intersectSorted(lists.map(v => v: IndexedSeq[Posting]))
      val want = lists.map(_.toSet).reduceOption(_ intersect _).getOrElse(Set.empty)
      assert(got.toSet == want)
      assert(got == got.sorted, "intersection stays sorted")
    }
  }

  test("intersectSorted of empty input / with an empty list") {
    assert(Posting.intersectSorted(Nil).isEmpty)
    assert(Posting.intersectSorted(Seq(Vector(Posting(0, 0, 1)), Vector.empty)).isEmpty)
  }

  test("intersectSorted of a single list is itself") {
    forAllG(genSorted, trials = 50) { ps =>
      assert(Posting.intersectSorted(Seq(ps)) == ps)
    }
  }

  test("unionSorted equals set union, sorted and duplicate-free") {
    forAllG(Gen.listOfN(3, genSorted), trials = 100) { lists =>
      val got = Posting.unionSorted(lists.map(v => v: IndexedSeq[Posting]))
      assert(got.toSet == lists.flatten.toSet)
      assert(got == got.distinct.sorted)
    }
  }
}
