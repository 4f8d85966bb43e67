type t = (string * string option) list

let parse ~known tokens =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest ->
        let key, value =
          match String.index_opt tok '=' with
          | Some i ->
              ( String.sub tok 0 i,
                Some (String.sub tok (i + 1) (String.length tok - i - 1)) )
          | None -> (tok, None)
        in
        if not (List.mem key known) then
          Error
            (Printf.sprintf "unknown option %s (known: %s)" key
               (String.concat " " known))
        else if List.mem_assoc key acc then
          Error (Printf.sprintf "duplicate option %s" key)
        else go ((key, value) :: acc) rest
  in
  go [] tokens

let find key opts = List.find_map (fun (k, v) -> if k = key then v else None) opts

let flag key opts = List.exists (fun (k, v) -> k = key && v = None) opts

let float_opt key opts =
  match find key opts with
  | None -> Ok None
  | Some s -> (
      match float_of_string_opt s with
      | Some x when Float.is_finite x -> Ok (Some x)
      | _ -> Error (Printf.sprintf "bad number %s=%s" key s))

let float key ~default opts =
  Result.map (Option.value ~default) (float_opt key opts)

let int key ~default opts =
  match find key opts with
  | None -> Ok default
  | Some s -> (
      match int_of_string_opt s with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad integer %s=%s" key s))
