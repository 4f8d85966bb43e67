open Dp_mechanism

type column = { name : string; values : float array; lo : float; hi : float }

type policy = {
  total : Privacy.budget;
  backend : Ledger.backend;
  default_epsilon : float;
  analyst_epsilon : float option;
  universe : int;
  cache : bool;
  low_water : float;
}

let default_policy ~total =
  {
    total;
    backend = Ledger.Basic;
    default_epsilon = 0.1;
    analyst_epsilon = None;
    universe = 64;
    cache = true;
    low_water = 0.;
  }

type dataset = {
  name : string;
  columns : column array;
  rows : int;
  policy : policy;
}

let dataset ~name ~policy ~columns =
  if name = "" then invalid_arg "Registry.dataset: empty name";
  if columns = [] then invalid_arg "Registry.dataset: no columns";
  ignore
    (Dp_math.Numeric.check_pos "Registry.dataset default_epsilon"
       policy.default_epsilon);
  if policy.universe < 2 then
    invalid_arg "Registry.dataset: universe must be >= 2";
  if not (Float.is_finite policy.low_water) || policy.low_water < 0. then
    invalid_arg "Registry.dataset: low_water must be finite and >= 0";
  let rows = Array.length (List.hd columns).values in
  if rows = 0 then invalid_arg "Registry.dataset: empty columns";
  let seen = Hashtbl.create 8 in
  let columns =
    List.map
      (fun (c : column) ->
        if Hashtbl.mem seen c.name then
          invalid_arg
            (Printf.sprintf "Registry.dataset: duplicate column %S" c.name);
        Hashtbl.add seen c.name ();
        if c.lo >= c.hi then
          invalid_arg
            (Printf.sprintf "Registry.dataset: column %S has lo >= hi" c.name);
        if Array.length c.values <> rows then
          invalid_arg "Registry.dataset: ragged columns";
        {
          c with
          values =
            Array.map (Dp_math.Numeric.clamp ~lo:c.lo ~hi:c.hi) c.values;
        })
      columns
  in
  { name; columns = Array.of_list columns; rows; policy }

let column ds name =
  Array.find_opt (fun (c : column) -> c.name = name) ds.columns

type col_schema = { col : string; lo : float; hi : float }

type schema = {
  name : string;
  cols : col_schema array;
  rows : int;
  policy : policy;
}

let schema ~name ~rows ~policy cols =
  if name = "" then Error "schema: empty dataset name"
  else if cols = [] then Error "schema: no columns"
  else if rows <= 0 then Error "schema: rows must be positive"
  else if policy.default_epsilon <= 0. then
    Error "schema: default_epsilon must be positive"
  else
    let seen = Hashtbl.create 8 in
    let rec check = function
      | [] -> Ok { name; cols = Array.of_list cols; rows; policy }
      | (c : col_schema) :: rest ->
          if Hashtbl.mem seen c.col then
            Error (Printf.sprintf "schema: duplicate column %S" c.col)
          else if c.lo >= c.hi then
            Error (Printf.sprintf "schema: column %S has lo >= hi" c.col)
          else begin
            Hashtbl.add seen c.col ();
            check rest
          end
    in
    check cols

let schema_of (ds : dataset) =
  {
    name = ds.name;
    cols =
      Array.map
        (fun (c : column) -> { col = c.name; lo = c.lo; hi = c.hi })
        ds.columns;
    rows = ds.rows;
    policy = ds.policy;
  }

let schema_column s name =
  Array.find_opt (fun (c : col_schema) -> c.col = name) s.cols

let neighbor_flip name =
  match String.rindex_opt name '~' with
  | None -> None
  | Some i when i = 0 -> None
  | Some i ->
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      if String.length suffix > 4 && String.sub suffix 0 4 = "flip" then
        match
          int_of_string_opt (String.sub suffix 4 (String.length suffix - 4))
        with
        | Some row when row >= 0 -> Some (String.sub name 0 i, row)
        | _ -> None
      else None

let synthetic ~name ~rows ~policy g =
  if rows <= 0 then invalid_arg "Registry.synthetic: rows must be positive";
  let age =
    Array.init rows (fun _ -> Dp_rng.Sampler.uniform ~lo:18. ~hi:80. g)
  in
  let income =
    Dp_dataset.Synthetic.gaussian_mixture_1d ~weights:[| 0.65; 0.35 |]
      ~means:[| 32_000.; 95_000. |] ~stds:[| 12_000.; 30_000. |] ~n:rows g
  in
  let score =
    Array.init rows (fun _ -> Dp_rng.Sampler.gaussian ~mean:0. ~std:1. g)
  in
  (* A [BASE~flipN] name asks for the canonical neighbour of BASE: the
     same generator stream produces identical columns, then row N is
     pushed to its opposite bound in every column. Comparing against the
     post-clamp value guarantees the pair differs in exactly that record
     even when the raw draw was already outside the bounds. *)
  (match neighbor_flip name with
  | None -> ()
  | Some (_, row) ->
      if row >= rows then
        invalid_arg
          (Printf.sprintf
             "Registry.synthetic: neighbour flip row %d out of range (%d rows)"
             row rows);
      let flip values lo hi =
        let v = Dp_math.Numeric.clamp ~lo ~hi values.(row) in
        values.(row) <- (if v = lo then hi else lo)
      in
      flip age 18. 80.;
      flip income 0. 200_000.;
      flip score (-4.) 4.);
  dataset ~name ~policy
    ~columns:
      [
        { name = "age"; values = age; lo = 18.; hi = 80. };
        { name = "income"; values = income; lo = 0.; hi = 200_000. };
        { name = "score"; values = score; lo = -4.; hi = 4. };
      ]

type t = (string, dataset) Hashtbl.t

let create () : t = Hashtbl.create 8

let register t (ds : dataset) =
  if Hashtbl.mem t ds.name then
    Error (Printf.sprintf "dataset %S already registered" ds.name)
  else (
    Hashtbl.add t ds.name ds;
    Ok ())

let find t name = Hashtbl.find_opt t name
let names t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])
