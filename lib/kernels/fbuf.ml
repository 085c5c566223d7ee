(* Flat float64 buffer on a Bigarray backing store.

   The matrix and kernel layers keep their numeric payloads here instead
   of on [float array]: the data block lives outside the OCaml heap, so
   creating, filling and dropping large buffers costs the GC a
   custom-block header (a few words) rather than [n] major-heap words,
   and the scanners never trace the payload.  Access compiles to direct
   float64 loads/stores — no boxing on get/set in native code, same as a
   [float array].

   Only 1-D buffers exist; 2-D users (matrices) keep explicit [rows] /
   [cols] and index row-major via {!idx}.  That keeps every consumer on
   one layout — the same flat, offset-based convention as
   [Scatter.offsets] — instead of growing a zoo of view types. *)

[@@@nldl.unsafe_zone
  "unsafe_get/unsafe_set are re-exports for audited kernel zones \
   (Matmul, Outer_product, Parallel_matmul, Summa, Matrix) that validate index \
   ranges once before their inner loops; everything else here is bounds-checked \
   Bigarray access (U-audit 2026-08)"]

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n =
  if n < 0 then invalid_arg "Fbuf.create: negative length";
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0.;
  b

(* [external] re-declarations of the Bigarray primitives rather than
   wrapper functions: a cross-module wrapper call returns its float
   boxed (no flambda to inline it away), which would put two words back
   on the minor heap per read — the exact overhead this module exists
   to remove.  As externals, callers compile every access to a direct
   unboxed float64 load/store. *)
external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> float = "%caml_ba_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fill (b : t) v = Bigarray.Array1.fill b v

let idx ~cols i j = (i * cols) + j

let init n f =
  let b = create n in
  for i = 0 to n - 1 do
    unsafe_set b i (f i)
  done;
  b

let of_array a =
  let n = Array.length a in
  let b = create n in
  for i = 0 to n - 1 do
    unsafe_set b i (Array.unsafe_get a i)
  done;
  b

let to_array (b : t) = Array.init (length b) (fun i -> unsafe_get b i)

let copy (b : t) =
  let n = length b in
  let out = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.blit b out;
  out

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > length src
    || dst_pos + len > length dst
  then invalid_arg "Fbuf.blit: range out of bounds";
  (* A manual loop instead of Array1.sub + Array1.blit: sub allocates a
     view header per call, and row-blits (Strassen, Summa panels) sit in
     loops where that would put O(rows) words back on the minor heap. *)
  if src != dst || dst_pos <= src_pos then
    for i = 0 to len - 1 do
      unsafe_set dst (dst_pos + i) (unsafe_get src (src_pos + i))
    done
  else
    for i = len - 1 downto 0 do
      unsafe_set dst (dst_pos + i) (unsafe_get src (src_pos + i))
    done

let equal (a : t) (b : t) =
  length a = length b
  &&
  let ok = ref true in
  for i = 0 to length a - 1 do
    (* Bitwise equality: Int64 views so 0. <> -0. and NaN = NaN — this
       is the byte-identity predicate the kernel tests gate on. *)
    if
      not
        (Int64.equal
           (Int64.bits_of_float (unsafe_get a i))
           (Int64.bits_of_float (unsafe_get b i)))
    then ok := false
  done;
  !ok
