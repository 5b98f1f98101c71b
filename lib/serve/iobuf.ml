(* Growable byte buffer with a consumption cursor — the per-connection
   read/write staging area of the reactor.

   One [Bytes.t] backs both roles: producers append at the tail
   ([extend] then write in place, or [refill] from an fd), consumers
   take from the head ([consume] after parsing, [write] to an fd).  The
   head offset slides instead of shifting bytes on every consume; the
   buffer compacts (blit to offset 0) only when the tail runs out of
   room, and doubles when the live span itself does not fit.  An
   emptied buffer resets its offset so a long-lived idle connection
   does not pin a large window.

   Not domain-safe: each buffer is owned by exactly one reactor shard
   domain. *)

type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let create ?(initial = 4096) () =
  if initial < 1 then invalid_arg "Iobuf.create: initial must be >= 1";
  { buf = Bytes.create initial; off = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Make room for [n] more bytes at the tail: compact if the live span
   fits the current storage, otherwise grow geometrically. *)
let reserve t n =
  let cap = Bytes.length t.buf in
  if t.off + t.len + n > cap then
    if t.len + n <= cap then begin
      Bytes.blit t.buf t.off t.buf 0 t.len;
      t.off <- 0
    end
    else begin
      let want = t.len + n in
      let cap' = ref (max cap 1) in
      while !cap' < want do
        cap' := !cap' * 2
      done;
      let b = Bytes.create !cap' in
      Bytes.blit t.buf t.off b 0 t.len;
      t.buf <- b;
      t.off <- 0
    end

let extend t n =
  if n < 0 then invalid_arg "Iobuf.extend: negative length";
  reserve t n;
  let at = t.off + t.len in
  t.len <- t.len + n;
  at

let storage t = t.buf

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Iobuf.get: out of bounds";
  Bytes.get t.buf (t.off + i)

let get_u32_be t pos =
  if pos < 0 || pos + 4 > t.len then invalid_arg "Iobuf.get_u32_be";
  let b i = Char.code (Bytes.get t.buf (t.off + pos + i)) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Only the live span [off, off + len) is searched: eight bytes at a
   time while a whole word fits, with the has-zero-byte test on [word
   xor (c repeated)] (it flags exactly the words that hold [c]), then
   byte by byte from the first flagged word or for the tail. *)
let index t c =
  let b = t.buf and stop = t.off + t.len in
  let pat = Int64.mul 0x0101010101010101L (Int64.of_int (Char.code c)) in
  let i = ref t.off in
  while
    !i + 8 <= stop
    &&
    let x = Int64.logxor (get64u b !i) pat in
    Int64.equal
      (Int64.logand
         (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
         0x8080808080808080L)
      0L
  do
    i := !i + 8
  done;
  while !i < stop && Bytes.unsafe_get b !i <> c do
    incr i
  done;
  if !i < stop then !i - t.off else -1

let sub t pos n =
  if pos < 0 || n < 0 || pos + n > t.len then
    invalid_arg "Iobuf.sub: out of bounds";
  Bytes.sub_string t.buf (t.off + pos) n

let consume t n =
  if n < 0 || n > t.len then invalid_arg "Iobuf.consume: out of bounds";
  t.off <- t.off + n;
  t.len <- t.len - n;
  if t.len = 0 then t.off <- 0

let refill t fd ~max =
  reserve t max;
  let n = Unix.read fd t.buf (t.off + t.len) max in
  t.len <- t.len + n;
  n

let write t fd =
  if t.len = 0 then 0
  else begin
    (* single_write: exactly one write(2), so a partial transfer on a
       non-blocking fd reports how much actually left the buffer
       (Unix.write retries internally and loses that count on EAGAIN). *)
    let n = Unix.single_write fd t.buf t.off t.len in
    consume t n;
    n
  end
