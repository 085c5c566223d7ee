[@@@nldl.unsafe_zone
  "distributed runs Zone.validate_tiling and demand_driven_blocks checks the \
   block schedule (n_side divides n, enough owners) before the unchecked rank-1 \
   fill loops over the flat stores (U-audit 2026-08)"]

module Fbuf = Kernels.Fbuf

type stats = { per_worker : int array; total : int; result : Matrix.t }

let sequential a b = Matrix.outer a b

let[@nldl.bounds_validated "Zone.validate_tiling"] distributed ~zones a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Outer_product.distributed: |a| <> |b|";
  (match Zone.validate_tiling ~n zones with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Outer_product.distributed: " ^ msg));
  let result = Matrix.create ~rows:n ~cols:n in
  (* Zones validated above, so the fill loops index the row-major store
     directly — no per-cell bounds check. *)
  let rd = Matrix.data result in
  let per_worker =
    Array.map
      (fun z ->
        (* The worker receives a[row0..row0+rows) and b[col0..col0+cols),
           then fills its zone of the result. *)
        for i = z.Zone.row0 to z.Zone.row0 + z.Zone.rows - 1 do
          let ai = Array.unsafe_get a i in
          let rbase = i * n in
          for j = z.Zone.col0 to z.Zone.col0 + z.Zone.cols - 1 do
            Fbuf.unsafe_set rd (rbase + j) (ai *. Array.unsafe_get b j)
          done
        done;
        Zone.half_perimeter z)
      zones
  in
  { per_worker; total = Array.fold_left ( + ) 0 per_worker; result }

let[@nldl.bounds_validated "Matrix.create"] demand_driven_blocks ?(dedup = false)
    ~workers:p ~owners ~n_side a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Outer_product.demand_driven_blocks: |a| <> |b|";
  if n_side <= 0 || n mod n_side <> 0 then
    invalid_arg "Outer_product.demand_driven_blocks: n_side must divide |a|";
  let blocks_per_side = n / n_side in
  let blocks = blocks_per_side * blocks_per_side in
  if Array.length owners < blocks then
    invalid_arg "Outer_product.demand_driven_blocks: schedule has too few blocks";
  for block = 0 to blocks - 1 do
    let owner = owners.(block) in
    if owner < 0 || owner >= p then
      invalid_arg "Outer_product.demand_driven_blocks: owner out of range"
  done;
  let per_worker = Array.make p 0 in
  let result = Matrix.create ~rows:n ~cols:n in
  (* Per-worker received-slice caches as two flat p×n byte planes (row
     w = worker w's flags) instead of an array of arrays: one flat
     allocation each, same layout convention as the matrices. *)
  let have_a = Bytes.make (p * n) '\000' in
  let have_b = Bytes.make (p * n) '\000' in
  let charge cache worker lo len =
    if dedup then begin
      let base = worker * n in
      let fresh = ref 0 in
      for idx = base + lo to base + lo + len - 1 do
        if Bytes.unsafe_get cache idx = '\000' then begin
          Bytes.unsafe_set cache idx '\001';
          incr fresh
        end
      done;
      !fresh
    end
    else len
  in
  (* Every block lies inside [0, n)² by construction ([n_side] divides
     [n] and [block < blocks_per_side²]), so fill directly. *)
  let rd = Matrix.data result in
  for block = 0 to blocks - 1 do
    let owner = owners.(block) in
    let brow = block / blocks_per_side and bcol = block mod blocks_per_side in
    let row0 = brow * n_side and col0 = bcol * n_side in
    per_worker.(owner) <-
      per_worker.(owner)
      + charge have_a owner row0 n_side
      + charge have_b owner col0 n_side;
    for i = row0 to row0 + n_side - 1 do
      let ai = Array.unsafe_get a i in
      let rbase = i * n in
      for j = col0 to col0 + n_side - 1 do
        Fbuf.unsafe_set rd (rbase + j) (ai *. Array.unsafe_get b j)
      done
    done
  done;
  { per_worker; total = Array.fold_left ( + ) 0 per_worker; result }
