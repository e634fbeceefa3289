type t = { key : int64 }

let create ~seed = { key = Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L }

(* The [@inline] helpers below are inlined into the other functions of
   this module, so the Int64 values passed between them stay unboxed; as
   separate calls, a pair-point lookup (KSelect's sorting stage makes one
   per pair per stage) allocated 14 minor words through them.  The
   annotation does not cross a library boundary in the dev profile that
   [dune build] and perfbench use: it compiles every library with
   [-opaque], so other libraries call these functions out of line, and a
   float result would come back boxed on every call.  That is why a point
   leaves this module as its 53-bit mantissa, an immediate int, and
   [Ldb] turns it into a float only inside its own lookup. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] raw t x = mix64 (Int64.add (Int64.logxor (Int64.of_int x) t.key) 0x9E3779B97F4A7C15L)

let int t x = Int64.to_int (Int64.shift_right_logical (raw t x) 2)

let pair t i j =
  let h1 = raw t i in
  let h2 = mix64 (Int64.add h1 (Int64.of_int j)) in
  Int64.to_int (Int64.shift_right_logical h2 2)

(* The top 53 bits of the 64-bit hash: [int] and [pair] keep the top 62. *)
let point t x = int t x lsr 9
let pair_point t i j = pair t i j lsr 9
