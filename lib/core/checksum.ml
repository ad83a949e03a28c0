let fnv_prime = 0x100000001b3

let sub (s : string) pos len =
  let h = ref 0x2545F4914F6CDD1D in
  let n8 = len / 8 * 8 in
  let i = ref 0 in
  while !i < n8 do
    (* fold bits 62-63 back into the low bits before masking to the
       63-bit int range — otherwise the top two bits of every aligned
       word would be invisible to the checksum (a single-bit flip
       there, e.g. a float sign, would slip through) *)
    let c64 = String.get_int64_le s (pos + !i) in
    let c = Int64.to_int (Int64.logxor c64 (Int64.shift_right_logical c64 62)) land max_int in
    h := (!h lxor c) * fnv_prime land max_int;
    i := !i + 8
  done;
  for o = pos + n8 to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s o)) * fnv_prime land max_int
  done;
  !h

let string s = sub s 0 (String.length s)
