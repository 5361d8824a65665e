type name = [ `List ]

let to_string `List = "list"
let default () = `List
