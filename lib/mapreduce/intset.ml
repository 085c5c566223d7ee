(* Open addressing over a power-of-two [int array], [min_int] marking an
   empty slot, linear probing: the scheduler queries these sets per
   event, so membership and insertion must allocate nothing (a
   [Hashtbl] keyed by [(worker, task)] allocates a tuple per query and
   a bucket per insert). *)

type t = { mutable slots : int array; mutable shift : int; mutable count : int }

let empty_slot = min_int

(* 2^63 / golden ratio, rounded to odd: Fibonacci hashing. *)
let golden = 0x4F1BBCDCBFA53E0B

let int_bits = Sys.int_size

let create cap =
  let cap = max 8 cap in
  let bits = ref 3 in
  while 1 lsl !bits < cap do
    incr bits
  done;
  { slots = Array.make (1 lsl !bits) empty_slot; shift = int_bits - !bits; count = 0 }

(* The home slot takes the {e high} bits of [x * golden].  The low k
   bits of a product [x * odd] depend only on the low k bits of [x], so
   keys strided by a multiple of 2^k (one worker's block ids under FIFO
   hand-out, [w + p*j]; the quarantine keys [w * n_tasks + i]) would
   share a few home slots; the high bits mix in every bit of [x]. *)
let[@inline] slot_of t x = (x * golden) lsr t.shift

let mem t x =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (slot_of t x) in
  let found = ref false in
  let probing = ref true in
  while !probing do
    let v = slots.(!j) in
    if v = x then begin
      found := true;
      probing := false
    end
    else if v = empty_slot then probing := false
    else j := (!j + 1) land mask
  done;
  !found

let rec add t x =
  if x = empty_slot then invalid_arg "Intset.add: min_int is the empty marker";
  if 2 * (t.count + 1) > Array.length t.slots then grow t;
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (slot_of t x) in
  let probing = ref true in
  while !probing do
    let v = slots.(!j) in
    if v = x then probing := false
    else if v = empty_slot then begin
      slots.(!j) <- x;
      t.count <- t.count + 1;
      probing := false
    end
    else j := (!j + 1) land mask
  done

and grow t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) empty_slot;
  t.shift <- t.shift - 1;
  t.count <- 0;
  Array.iter (fun v -> if v <> empty_slot then add t v) old

let probe_length t x =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (slot_of t x) and n = ref 1 in
  while slots.(!j) <> x && slots.(!j) <> empty_slot do
    j := (!j + 1) land mask;
    incr n
  done;
  !n

let capacity t = Array.length t.slots

let reset t =
  if t.count > 0 then begin
    Array.fill t.slots 0 (Array.length t.slots) empty_slot;
    t.count <- 0
  end
