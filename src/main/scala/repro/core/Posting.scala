package repro.core

/** One posting: the byte range of a document inside a corpus blob.
  *
  * Blob names are compressed to integer keys (`blobId`) via the string
  * table the Builder persists in the header block (§IV-C: "AIRPHANT
  * compresses repeated strings within postings into integer keys").
  * Postings are identified — for union/intersection purposes — by
  * (blobId, offset); the length rides along for the range read.
  */
final case class Posting(blobId: Int, offset: Long, length: Int) extends Ordered[Posting] {
  require(blobId >= 0 && offset >= 0 && length >= 0, s"bad posting: $this")

  override def compare(that: Posting): Int = {
    val c = java.lang.Integer.compare(blobId, that.blobId)
    if (c != 0) c else java.lang.Long.compare(offset, that.offset)
  }

  /** Packed identity for fast set operations (offset < 2^40 assumed,
    * i.e. blobs under 1 TB — far above any blob we write).
    */
  def key: Long = (blobId.toLong << 40) | offset
}

object Posting {
  /** Intersection of sorted, duplicate-free postings lists (the IoU in
    * IoU Sketch). Linear merge over all lists at once; a single list is
    * returned as it is.
    */
  def intersectSorted(lists: Seq[IndexedSeq[Posting]]): Vector[Posting] = {
    if (lists.isEmpty) return Vector.empty
    if (lists.size == 1) return lists.head.toVector
    if (lists.exists(_.isEmpty)) return Vector.empty
    val sortedLists = lists.sortBy(_.size)
    val smallest = sortedLists.head
    val rest = sortedLists.tail
    val out = Vector.newBuilder[Posting]
    val cursors = Array.fill(rest.size)(0)
    var i = 0
    while (i < smallest.size) {
      val p = smallest(i)
      var inAll = true
      var j = 0
      while (inAll && j < rest.size) {
        val lst = rest(j)
        var c = cursors(j)
        while (c < lst.size && lst(c) < p) c += 1
        cursors(j) = c
        inAll = c < lst.size && lst(c) == p
        j += 1
      }
      if (inAll) out += p
      i += 1
    }
    out.result()
  }

  /** Union of sorted, duplicate-free postings lists (superpost merge). */
  def unionSorted(lists: Seq[IndexedSeq[Posting]]): Vector[Posting] = {
    val merged = lists.flatten.sorted
    val out = Vector.newBuilder[Posting]
    var last: Posting = null
    merged.foreach { p => if (last == null || p != last) { out += p; last = p } }
    out.result()
  }
}
